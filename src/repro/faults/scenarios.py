"""Scripted chaos scenarios: fault plans on the chain3 deployment.

Each scenario pairs the model checker's deterministic 3-datacenter
deployment with the robustness machinery turned on
(:func:`repro.analysis.mc.scenario.build_hardened_chain3`: serializer
beacons, the per-sink failure detector, and the
:class:`~repro.core.failover.AutoFailover` recovery coordinator) with a
:class:`~repro.faults.plan.FaultPlan`.  All
fault times are fixed (``at=...``), so a scenario runs bit-identically
without a schedule controller; the *model-checked* variant with open
fault timing lives in the mc catalog as ``crash-chain3``.

* ``serializer-crash`` — datacenter I's attachment serializer dies
  mid-stream and restarts later.  I degrades to the timestamp total
  order (parking its outgoing labels), keeps writing while degraded, and
  the restarted serializer's first beacon triggers the emergency epoch
  change that replays the backlog.
* ``root-partition`` — the root serializer sF is isolated from the
  network before the first label batch crosses it, so the batch reaches
  neither F nor T by tree.  F degrades and recovers; T (whose own
  attachment stayed healthy) only sees the updates once the emergency
  transition's timestamp fallback drains its buffered payloads.
* ``crash-during-epoch-change`` — sI crashes just before a *planned*
  reconfiguration, swallowing epoch-change marks so the fast path can
  never complete.  The proxies' transition timeout escalates the stuck
  switch onto the failure path (§6.2) and the run converges anyway.

Two scenarios target the stabilization baselines instead of Saturn
(:func:`repro.analysis.mc.scenario.build_chain3` with ``system=``):

* ``eunomia-seq-crash`` — datacenter I's site sequencer is isolated and
  later rejoins: local writes stay unobtrusive, remote visibility of
  I's updates stalls until the held FIFO stream replays.
* ``okapi-clock-skew`` — an 8 ms clock-skew spike (and the resync that
  removes it) must be absorbed by the hybrid logical/physical clock
  without a single causal violation.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.analysis.mc.scenario import (SITES, Scenario, build_chain3,
                                        build_hardened_chain3)
from repro.core.service import SaturnService
from repro.faults.plan import FaultAction, FaultPlan
from repro.net.spec import chain_clients

__all__ = ["CHAOS_SCENARIOS", "build_chaos_scenario"]


def _serializer_crash() -> Scenario:
    # t=6: after the first label batch cleared sI (~t=2.5) but before the
    # y label comes back through it (~t=12) — y's branch toward I is
    # swallowed, and everything I writes afterwards parks until recovery
    plan = FaultPlan(name="serializer-crash", actions=(
        FaultAction(kind="crash-serializer", at=6.0,
                    args={"tree": "sI", "epoch": 0}),
        FaultAction(kind="restart-serializer", at=40.0,
                    args={"tree": "sI", "epoch": 0}),
    ))
    return build_hardened_chain3("serializer-crash", 150.0, plan)


def _root_partition() -> Scenario:
    # t=3: the first batch is already in flight from sI (sent ~t=2.5, so
    # it still lands on sF), but every send to or *from* the isolated sF
    # is held by the reliable channels — F and T get payloads with no
    # labels until the outage ends and the emergency switch replays
    root = SaturnService.serializer_process_name(0, "sF")
    plan = FaultPlan(name="root-partition", actions=(
        FaultAction(kind="isolate", at=3.0, args={"process": root}),
        FaultAction(kind="rejoin", at=45.0, args={"process": root}),
    ))
    return build_hardened_chain3("root-partition", 200.0, plan)


def _crash_during_epoch_change() -> Scenario:
    # sI dies at t=6; a *planned* reconfiguration fires at t=15.  The
    # epoch-change marks routed through the dead serializer never arrive,
    # so the fast path stalls at every proxy; the transition timeout
    # escalates the switch onto the failure path instead.  No automatic
    # recovery here — the planned switch itself replaces the dead tree.
    plan = FaultPlan(name="crash-during-epoch-change", actions=(
        FaultAction(kind="crash-serializer", at=6.0,
                    args={"tree": "sI", "epoch": 0}),
    ))
    return build_hardened_chain3(
        "crash-during-epoch-change", 200.0, plan, auto_failover=False,
        reconfigure_at=15.0, dc_params=dict(transition_timeout=30.0))


def _baseline_outage(name: str, system: str, plan: FaultPlan) -> Scenario:
    """chain3 on *system*, with poll caps sized for a stalled
    stabilization and ``g0:c`` written through the outage."""
    return build_chain3(
        name, horizon=300.0, system=system,
        clients=chain_clients(SITES, relay_cap=200, reader_cap=250,
                              writer_cap=300),
        fault_plan=plan, min_expected_updates=5)


def _eunomia_seq_crash() -> Scenario:
    """Datacenter I's site sequencer is cut off mid-stream.

    t=3: the first batch tick (t=2) already shipped ``g0:a``, but ``b``
    and ``p`` are still buffered (or in flight to) the sequencer when it
    is isolated — and so are I's subsequent clock-floor ticks, so I's
    stable floor freezes everywhere.  Remote visibility of I's updates
    stalls (deferred stabilization's liveness cost) while local writes
    keep completing (the "unobtrusive" claim: the client path never
    touches the sequencer).  After the rejoin at t=40 the held FIFO
    traffic replays in order; the oracles check the whole arc — nothing
    lost, nothing misordered, every client terminates."""
    seq_i = "seq:I"
    plan = FaultPlan(name="eunomia-seq-crash", actions=(
        FaultAction(kind="isolate", at=3.0, args={"process": seq_i}),
        FaultAction(kind="rejoin", at=40.0, args={"process": seq_i}),
    ))
    return _baseline_outage("eunomia-seq-crash", "eunomia", plan)


def _okapi_clock_skew() -> Scenario:
    """Datacenter I's physical clock jumps 8 ms ahead mid-run, then an
    NTP-style resync at t=60 yanks it back.

    The hybrid clock must absorb both edges: timestamps stay monotone
    through the backward step (logical bumps carry the HLC until
    physical time catches up), receivers merge the skewed values into
    their own clocks, and the global-cut stabilization keeps advancing
    because Okapi's GSV follows *received HLCs*, not local wall clocks.
    ``g0:c`` is written while the skew is active, so a future-stamped
    update flows through the whole pipeline."""
    plan = FaultPlan(name="okapi-clock-skew", actions=(
        FaultAction(kind="clock-skew", at=10.0,
                    args={"dc": "I", "skew": 8.0}),
        FaultAction(kind="clock-skew", at=60.0,
                    args={"dc": "I", "skew": 0.0}),
    ))
    return _baseline_outage("okapi-clock-skew", "okapi", plan)


CHAOS_SCENARIOS: Dict[str, Callable[[], Scenario]] = {
    "serializer-crash": _serializer_crash,
    "root-partition": _root_partition,
    "crash-during-epoch-change": _crash_during_epoch_change,
    "eunomia-seq-crash": _eunomia_seq_crash,
    "okapi-clock-skew": _okapi_clock_skew,
}


def build_chaos_scenario(name: str) -> Scenario:
    """Build chaos scenario *name* (not yet run)."""
    try:
        builder = CHAOS_SCENARIOS[name]
    except KeyError:
        raise ValueError(f"unknown chaos scenario {name!r}; "
                         f"expected one of {sorted(CHAOS_SCENARIOS)}") from None
    return builder()
