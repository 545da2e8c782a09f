"""SinkFailoverDetector state machine on the chain3 deployment.

The chaos-suite scenarios (tests/chaos/) cover the full degrade/recover
arc end to end; these tests pin the individual FSM edges: the grace
period, suspicion, the stabilization window clearing a false positive,
and degradation parking the sink."""

import pytest

from repro.analysis.mc.scenario import BEACON_PERIOD, DETECTOR, build_chain3
from repro.datacenter.failover import (ATTACHED, DEGRADED, SUSPECTED,
                                       SinkFailoverDetector)
from repro.faults.plan import FaultAction, FaultPlan


def _deploy(name, horizon, plan=None, auto_failover=False):
    return build_chain3(name, horizon=horizon, beacon_period=BEACON_PERIOD,
                        dc_params=DETECTOR,
                        auto_failover=auto_failover, fault_plan=plan)


def _crash_plan(restart_at=None):
    actions = [FaultAction(kind="crash-serializer", at=6.0,
                           args={"tree": "sI", "epoch": 0})]
    if restart_at is not None:
        actions.append(FaultAction(kind="restart-serializer", at=restart_at,
                                   args={"tree": "sI", "epoch": 0}))
    return FaultPlan(name="fsm", actions=tuple(actions))


def test_beacon_timeout_must_be_positive():
    with pytest.raises(ValueError, match="beacon_timeout"):
        SinkFailoverDetector(None, beacon_timeout=0.0)


def test_healthy_run_never_leaves_attached(healthy_beacon_run):
    scenario = healthy_beacon_run  # tests/conftest.py: 60 ms, no fault
    for name, dc in scenario.datacenters.items():
        assert dc.failover is not None, name
        assert dc.failover.state == ATTACHED
        assert dc.failover.transitions == []
        assert dc.failover.degraded_spans == []
        assert not dc.saturn_down


def test_silence_suspects_then_degrades_and_parks_the_sink():
    # sI's last beacon lands just after t=6; silence crosses the 7 ms
    # timeout at the t=14 check, and the 4 ms stabilization wait expires
    # with the serializer still dead
    scenario = _deploy("fsm-degrade", horizon=60.0, plan=_crash_plan())
    scenario.run()
    detector = scenario.datacenters["I"].failover
    assert [state for _, state in detector.transitions] == [
        SUSPECTED, DEGRADED]
    assert detector.state == DEGRADED
    assert detector.degraded_spans == []  # span closes only on re-attach
    assert scenario.datacenters["I"].saturn_down
    assert scenario.datacenters["I"].sink.parked
    # the healthy datacenters kept their own attachments
    assert scenario.datacenters["T"].failover.state == ATTACHED


def test_delayed_beacon_within_stabilization_window_clears_suspicion():
    # a congestion spike delays (but does not lose) sI's beacons: the one
    # sent at t=6 lands at t=16.25, inside the stabilization window
    # (suspected t=14, degrade timer t=18).  Same incarnation, so it is a
    # genuine false positive and clears without degrading.
    plan = FaultPlan(name="fsm-clear", actions=(
        FaultAction(kind="delay-spike", at=5.0,
                    args={"src": "ser:e0:sI", "dst": "dc:I", "extra": 10.0}),
    ))
    scenario = _deploy("fsm-clear", horizon=60.0, plan=plan)
    scenario.run()
    detector = scenario.datacenters["I"].failover
    assert [state for _, state in detector.transitions] == [
        SUSPECTED, ATTACHED]
    assert detector.state == ATTACHED
    assert detector.degraded_spans == []
    assert not scenario.datacenters["I"].saturn_down
    assert not scenario.datacenters["I"].sink.parked


def test_fast_restart_inside_suspicion_window_still_forces_recovery():
    # crash at t=6, restart at t=15: the revived serializer announces its
    # new incarnation immediately (t=15.25, before the degrade timer at
    # t=18 and before it can forward a single label), proving the tree
    # lost its volatile state.  Liveness must NOT clear the suspicion; the
    # detector degrades on the spot and the coordinator fires the epoch
    # change that replays the swallowed labels (found by the
    # random-fault-plan property test).
    scenario = _deploy("fsm-fast-restart", horizon=120.0,
                       plan=_crash_plan(15.0), auto_failover=True)
    scenario.run()
    detector = scenario.datacenters["I"].failover
    assert [state for _, state in detector.transitions] == [
        SUSPECTED, DEGRADED, ATTACHED]
    assert detector.degraded_spans
    assert scenario.failover.recoveries
    assert scenario.service.current_epoch == 1


def test_degraded_detector_reaches_attached_only_through_a_new_epoch():
    # with the coordinator wired, the restarted serializer's beacon is
    # connectivity evidence only; re-attachment happens after the
    # emergency switch raised the watched epoch past the failed one
    scenario = _deploy("fsm-recover", horizon=120.0,
                       plan=_crash_plan(40.0), auto_failover=True)
    scenario.run()
    detector = scenario.datacenters["I"].failover
    assert [state for _, state in detector.transitions] == [
        SUSPECTED, DEGRADED, ATTACHED]
    reattached_at = detector.transitions[-1][0]
    recovery_at = scenario.failover.recoveries[0][0]
    assert recovery_at <= reattached_at
    assert detector._watched_epoch == 1
