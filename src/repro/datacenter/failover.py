"""Sink failover state machine: detect a dead tree attachment, degrade,
and re-attach (§2.3 / §6.2 robustness machinery).

Each Saturn datacenter can run one :class:`SinkFailoverDetector` next to its
label sink.  Serializers push :class:`~repro.datacenter.messages.SerializerBeacon`
liveness beacons to every attached sink (see
:meth:`repro.core.serializer.Serializer.start_beacons`); the detector expects
one every ``beacon_period`` ms and walks a three-state machine on silence:

``ATTACHED`` --(no beacon for ``beacon_timeout`` ms)--> ``SUSPECTED``
    Suspicion is tentative: a beacon arriving within ``stabilization_wait``
    ms clears it (late beacons, transient congestion).

``SUSPECTED`` --(still silent after ``stabilization_wait`` ms)--> ``DEGRADED``
    The datacenter gives up on the tree: the proxy falls back to the
    timestamp total order of labels piggybacked on bulk payloads (always
    available, §2.3 — buffered entries drain in ``(ts, source)`` order once
    stable), and the sink *parks* outgoing labels for later replay.

``DEGRADED`` --(recovered tree's beacon after an epoch change)--> ``ATTACHED``
    Connectivity evidence (any beacon from the failed epoch: its restarted
    serializer, or one held by a partition and delivered at heal) is
    *reported* to the coordinator
    (:class:`repro.core.failover.AutoFailover`), which triggers an
    emergency epoch-change reconfiguration once every suspected datacenter
    can reach the tree again.  The detector only re-attaches after the
    switch raised the watched epoch past the failed one: re-attaching to
    the *same* epoch would strand the proxy in emergency mode with no
    transition target, since the labels swallowed by the dead tree are
    re-propagated by the sink replay only through the *new* epoch.

Beacons are the only reachability signal.  A restarted serializer beacons
at once and every ``beacon_period`` ms after, and a healed partition
re-sends held messages in order, so a beacon of the failed epoch is the
first message a degraded detector can get from its attachment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from repro.datacenter.messages import SerializerBeacon

if TYPE_CHECKING:  # pragma: no cover
    from repro.datacenter.datacenter import SaturnDatacenter

__all__ = ["SinkFailoverDetector", "ATTACHED", "SUSPECTED", "DEGRADED"]

ATTACHED = "attached"
SUSPECTED = "suspected"
DEGRADED = "degraded"


class SinkFailoverDetector:
    """Per-datacenter serializer-liveness detector with degraded fallback."""

    def __init__(self, dc: "SaturnDatacenter", beacon_timeout: float,
                 stabilization_wait: float = 4.0) -> None:
        if beacon_timeout <= 0:
            raise ValueError("beacon_timeout must be positive")
        self.dc = dc
        self.beacon_timeout = beacon_timeout
        self.stabilization_wait = stabilization_wait
        #: coordinator with on_suspected / on_suspicion_cleared /
        #: on_reachable / on_reattached callbacks (may stay None)
        self.coordinator: Optional[Any] = None

        self.state = ATTACHED
        #: (sim time, new state) history, for tests and experiments
        self.transitions: List[Tuple[float, str]] = []
        #: (degraded_at, reattached_at) closed intervals
        self.degraded_spans: List[Tuple[float, float]] = []

        self._last_beacon = 0.0
        self._watched_epoch = 0
        self._failed_epoch = -1
        self._degraded_at = 0.0
        self._check_timer = None
        self._degrade_event = None
        self._reachable_reported = False
        #: highest beacon incarnation seen from the watched epoch's tree
        self._seen_incarnation = 0
        #: opt-in label-lifecycle tracer (repro.obs)
        self.obs = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Arm the detector; call after network wiring (grace period starts
        now, so a freshly booted tree has ``beacon_timeout`` to speak up)."""
        self._last_beacon = self.dc.sim.now
        self._check_timer = self.dc.every(self.beacon_timeout / 2, self._check)

    # -- inputs -------------------------------------------------------------

    def on_beacon(self, beacon: SerializerBeacon) -> None:
        if beacon.epoch != self._watched_epoch:
            # a stale epoch speaking again (restarted serializer of the
            # tree we already gave up on): connectivity evidence only
            if self.state == DEGRADED and beacon.epoch == self._failed_epoch:
                self._report_reachable()
            return
        if beacon.incarnation > self._seen_incarnation:
            # the watched tree crashed and restarted: every label batch it
            # held — or that was sent at it while down — is gone.  Liveness
            # is not continuity: even if the beacon returns before the
            # silence was noticed (a fast fail-recover inside the suspicion
            # window), the only safe path is degrade + emergency epoch
            # change, whose sink replay re-propagates the swallowed labels.
            self._seen_incarnation = beacon.incarnation
            self._tree_lost_state()
            return
        if self.state == ATTACHED:
            self._last_beacon = self.dc.sim.now
        elif self.state == SUSPECTED:
            self._last_beacon = self.dc.sim.now
            self._cancel_degrade()
            self._enter(ATTACHED)
            if self.coordinator is not None:
                self.coordinator.on_suspicion_cleared(self.dc.dc_name)
        elif self.state == DEGRADED:
            if self._watched_epoch > self._failed_epoch:
                self._last_beacon = self.dc.sim.now
                self._reattach()
            else:
                self._report_reachable()

    def on_switch(self, new_epoch: int) -> None:
        """The datacenter moved its sink to *new_epoch* (any reconfiguration,
        planned or emergency)."""
        self._watched_epoch = new_epoch
        self._last_beacon = self.dc.sim.now  # grace for the new tree
        self._seen_incarnation = 0  # fresh processes, fresh count
        if self.state == SUSPECTED:
            # a planned switch outran the stabilization wait
            self._cancel_degrade()
            self._enter(ATTACHED)
            if self.coordinator is not None:
                self.coordinator.on_suspicion_cleared(self.dc.dc_name)

    # -- state machine ------------------------------------------------------

    def _enter(self, state: str) -> None:
        self.state = state
        self.transitions.append((self.dc.sim.now, state))
        if self.obs is not None:
            self.obs.annotate(self.dc.sim.now, "failover", self.dc.dc_name,
                              state=state)

    def _check(self) -> None:
        if self.state != ATTACHED:
            return
        if self.dc.sim.now - self._last_beacon <= self.beacon_timeout:
            return
        self._failed_epoch = self._watched_epoch
        self._enter(SUSPECTED)
        if self.coordinator is not None:
            self.coordinator.on_suspected(self.dc.dc_name, self._failed_epoch)
        self._degrade_event = self.dc.set_timer(self.stabilization_wait,
                                                self._degrade)

    def _tree_lost_state(self) -> None:
        """Definitive failure evidence for the watched epoch (a restarted
        serializer's first beacon): skip the silence heuristics and force
        the degrade -> recover arc.  The beacon itself proves the tree is
        reachable, so the coordinator can fire the epoch change at once."""
        if self.state == DEGRADED:
            self._report_reachable()
            return
        self._cancel_degrade()
        if self.state == ATTACHED:
            self._failed_epoch = self._watched_epoch
            self._enter(SUSPECTED)
            if self.coordinator is not None:
                self.coordinator.on_suspected(self.dc.dc_name,
                                              self._failed_epoch)
        self._degrade()
        self._report_reachable()

    def _degrade(self) -> None:
        if self.state != SUSPECTED:
            return
        self._enter(DEGRADED)
        self._degraded_at = self.dc.sim.now
        self._reachable_reported = False
        self.dc.saturn_down = True
        self.dc.sink.park()
        self.dc.proxy.enter_fallback()

    def _reattach(self) -> None:
        self.dc.saturn_down = False
        if self.dc.sink.parked:
            # a *planned* switch moved us to the new epoch while degraded
            # (the emergency path replays at switch time instead): unpark
            # and push the backlog through the live tree
            self.dc.sink.replay_recent()
        self.degraded_spans.append((self._degraded_at, self.dc.sim.now))
        self._enter(ATTACHED)
        if self.coordinator is not None:
            self.coordinator.on_reattached(self.dc.dc_name)

    def _report_reachable(self) -> None:
        if self._reachable_reported:
            return
        self._reachable_reported = True
        if self.coordinator is not None:
            self.coordinator.on_reachable(self.dc.dc_name)

    # -- timer bookkeeping --------------------------------------------------

    def _cancel_degrade(self) -> None:
        if self._degrade_event is not None:
            self._degrade_event.cancel()
            self._degrade_event = None
