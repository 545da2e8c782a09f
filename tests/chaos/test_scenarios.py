"""Scripted chaos scenarios: the full degrade/recover arc stays causal,
deterministic, and replayable, and the model checker's CLI exposes it."""

import json

import pytest

from repro.analysis.mc.__main__ import main
from repro.analysis.mc.oracles import evaluate_oracles
from repro.analysis.mc.scenario import SCENARIOS, build_scenario
from repro.datacenter.failover import ATTACHED, DEGRADED, SUSPECTED

#: the fault scenarios with fixed fault times (``crash-chain3`` leaves its
#: crash instant to the schedule controller)
CHAOS_NAMES = ("crash-during-epoch-change", "eunomia-seq-crash",
               "okapi-clock-skew", "root-partition", "serializer-crash")


@pytest.fixture(scope="module")
def runs():
    """Build-and-run each scenario once per module; tests share the result."""
    cache = {}

    def get(name):
        if name not in cache:
            scenario = build_scenario(name)
            scenario.run()
            cache[name] = (scenario, evaluate_oracles(scenario))
        return cache[name]

    return get


@pytest.mark.parametrize("name", sorted(CHAOS_NAMES))
def test_oracles_hold_across_the_fault(runs, name):
    scenario, violations = runs(name)
    assert violations == []
    # the whole causal chain completed despite the fault: a, b, p, y and
    # the degraded-mode write c
    keys = {record.key for record in scenario.log.updates.values()}
    assert keys == {"g0:a", "g0:b", "g0:y", "g0:c", "g1:p"}


@pytest.mark.parametrize("name", sorted(CHAOS_NAMES))
def test_double_run_digests_are_bit_identical(runs, name):
    scenario, _ = runs(name)
    again = build_scenario(name)
    again.run()
    assert again.digest() == scenario.digest()


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown scenario 'nope'"):
        build_scenario("nope")


# ---------------------------------------------------------------------------
# serializer-crash: degrade -> park -> automatic emergency recovery
# ---------------------------------------------------------------------------

def test_serializer_crash_walks_the_whole_state_machine(runs):
    scenario, _ = runs("serializer-crash")
    detector = scenario.datacenters["I"].failover
    assert [state for _, state in detector.transitions] == [
        SUSPECTED, DEGRADED, ATTACHED]
    assert detector.state == ATTACHED
    (degraded_at, reattached_at), = detector.degraded_spans
    assert degraded_at < reattached_at


def test_serializer_crash_recovers_via_emergency_epoch_change(runs):
    scenario, _ = runs("serializer-crash")
    assert scenario.failover.recoveries, "coordinator never fired"
    _, epoch = scenario.failover.recoveries[0]
    assert epoch == 1
    assert scenario.service.current_epoch == 1
    # recovery replays the parked backlog through the new tree
    assert scenario.datacenters["I"].sink.replays >= 1
    assert not scenario.datacenters["I"].saturn_down


def test_serializer_crash_fired_both_plan_actions(runs):
    scenario, _ = runs("serializer-crash")
    assert [(kind, at) for _, kind, at in scenario.injector.fired] == [
        ("crash-serializer", 6.0), ("restart-serializer", 40.0)]


# ---------------------------------------------------------------------------
# root-partition: isolation of the root, beacon-driven recovery
# ---------------------------------------------------------------------------

def test_root_partition_degrades_f_and_recovers(runs):
    scenario, _ = runs("root-partition")
    detector = scenario.datacenters["F"].failover
    states = [state for _, state in detector.transitions]
    assert DEGRADED in states
    assert detector.state == ATTACHED
    assert scenario.failover.recoveries
    assert scenario.service.current_epoch == 1


# ---------------------------------------------------------------------------
# crash-during-epoch-change: stuck fast path escalates, no coordinator
# ---------------------------------------------------------------------------

def test_crash_during_epoch_change_escalates_stuck_transitions(runs):
    scenario, _ = runs("crash-during-epoch-change")
    assert scenario.failover is None  # no automatic recovery wired
    for name, dc in scenario.datacenters.items():
        assert dc.proxy.transitions_escalated >= 1, name
    assert scenario.service.current_epoch == 1


# ---------------------------------------------------------------------------
# CLI (python -m repro.analysis.mc / saturn-repro mc)
# ---------------------------------------------------------------------------

def test_cli_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in CHAOS_NAMES:
        assert name in SCENARIOS
        assert name in out


def test_cli_scenario_with_artifacts(capsys):
    code = main(["--scenario", "serializer-crash", "--strategy", "fifo",
                 "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    summary = payload["summary"]
    assert summary["violations"] == []
    assert payload["deterministic"] is True
    assert summary["recoveries"] == [[pytest.approx(42.25, abs=5.0), 1]]
    assert summary["scenario"] == "serializer-crash"
    assert [kind for _, kind, _ in summary["faults_fired"]] == [
        "crash-serializer", "restart-serializer"]
