"""Automatic recovery coordinator: epoch change once the tree is repaired.

:class:`AutoFailover` aggregates the per-datacenter failure detectors
(:class:`repro.datacenter.failover.SinkFailoverDetector`) and drives the
§6.2 failure-path reconfiguration.  The recovery rule is deliberately
conservative: an emergency epoch change fires only once **every** datacenter
that suspected its attachment has heard a beacon of the failed tree again,
so the new epoch is never installed into a still-broken network.

In the real system this role is played by Saturn's (replicated)
configuration manager; here it is a plain coordinator object so scenarios
can introspect the event history deterministically.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.core.reconfig import ReconfigurationManager

__all__ = ["AutoFailover"]


class AutoFailover:
    """Recovery policy over suspicion / reachability reports."""

    def __init__(self, manager: ReconfigurationManager) -> None:
        self.manager = manager
        self._suspected: Set[str] = set()
        self._reachable: Set[str] = set()
        #: (sim time, kind, datacenter) audit trail
        self.events: List[Tuple[float, str, str]] = []
        #: (sim time, new epoch) of triggered recoveries
        self.recoveries: List[Tuple[float, int]] = []

    def _now(self) -> float:
        return self.manager.service.sim.now

    # -- detector callbacks --------------------------------------------------

    def on_suspected(self, dc_name: str, epoch: int) -> None:
        self.events.append((self._now(), "suspected", dc_name))
        self._suspected.add(dc_name)

    def on_suspicion_cleared(self, dc_name: str) -> None:
        self.events.append((self._now(), "cleared", dc_name))
        self._suspected.discard(dc_name)
        self._reachable.discard(dc_name)

    def on_reachable(self, dc_name: str) -> None:
        self.events.append((self._now(), "reachable", dc_name))
        self._reachable.add(dc_name)
        self._maybe_recover()

    def on_reattached(self, dc_name: str) -> None:
        self.events.append((self._now(), "reattached", dc_name))
        self._suspected.discard(dc_name)
        self._reachable.discard(dc_name)

    # -- recovery ------------------------------------------------------------

    def _maybe_recover(self) -> None:
        if not self._suspected or not self._suspected <= self._reachable:
            return
        self._suspected.clear()
        self._reachable.clear()
        # the repaired tree is the current topology under a fresh epoch
        # (same shape, new — live — serializer processes)
        epoch = self.manager.reconfigure(self.manager.service.topology(),
                                         emergency=True)
        self.recoveries.append((self._now(), epoch))
