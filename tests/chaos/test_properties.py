"""Property tests for the fault machinery.

* Safety under arbitrary (bounded) fault plans: whatever combination of
  crashes, restarts, isolations, and delay spikes hits the chain3
  deployment, no sink ever violates causal delivery, the FIFO discipline,
  or genuine partial replication.  Liveness/completeness are deliberately
  *not* asserted here — a hostile plan without a matching recovery action
  (crash with no restart) legitimately strands parked labels forever.
* The degraded-mode drain order: sorting by ``Label.sort_key()`` (the
  ``(ts, source)`` total order of §3) is a linear extension of
  happens-before, so the timestamp fallback can never apply a dependent
  update before its dependency.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.mc.scenario import build_hardened_chain3
from repro.core.label import Label, LabelType
from repro.core.service import SaturnService
from repro.faults.plan import FaultAction, FaultPlan

TREES = ("sI", "sF", "sT")
EDGES = (("sI", "sF"), ("sF", "sT"))


# ---------------------------------------------------------------------------
# random fault plans never violate safety
# ---------------------------------------------------------------------------

@st.composite
def fault_plans(draw):
    """1-3 bounded fault events, each optionally paired with its repair."""
    actions = []
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(("crash", "isolate", "delay")))
        tree = draw(st.sampled_from(TREES))
        start = float(draw(st.integers(min_value=1, max_value=25)))
        repair_after = float(draw(st.integers(min_value=5, max_value=40)))
        repaired = draw(st.booleans())
        if kind == "crash":
            actions.append(FaultAction(kind="crash-serializer", at=start,
                                       args={"tree": tree, "epoch": 0}))
            if repaired:
                actions.append(FaultAction(
                    kind="restart-serializer", at=start + repair_after,
                    args={"tree": tree, "epoch": 0}))
        elif kind == "isolate":
            process = SaturnService.serializer_process_name(0, tree)
            actions.append(FaultAction(kind="isolate", at=start,
                                       args={"process": process}))
            if repaired:
                actions.append(FaultAction(kind="rejoin",
                                           at=start + repair_after,
                                           args={"process": process}))
        else:
            src, dst = draw(st.sampled_from(EDGES))
            extra = float(draw(st.integers(min_value=1, max_value=20)))
            actions.append(FaultAction(
                kind="delay-spike", at=start,
                args={"src": SaturnService.serializer_process_name(0, src),
                      "dst": SaturnService.serializer_process_name(0, dst),
                      "extra": extra}))
    return FaultPlan(name="random-faults", actions=tuple(actions))


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(plan=fault_plans())
def test_random_fault_plans_never_violate_causal_delivery(plan):
    scenario = build_hardened_chain3("random-faults", 160.0, plan,
                                     min_expected_updates=0)
    scenario.run()
    report = scenario.monitor.report()
    assert not report.fifo_violations, [v.describe()
                                        for v in report.fifo_violations]
    assert scenario.monitor.crosscheck(scenario.log) == []
    assert scenario.routing_oracle.violations == []


@pytest.mark.parametrize("restart_at", [14.0, 15.0])
def test_fast_restart_plan_found_by_hypothesis_stays_fixed(restart_at):
    """Pinned falsifying examples: sT fail-recovers inside the suspicion
    window.  Two protocol holes hid here, both found by the random-plan
    property test:

    * before beacons carried incarnation numbers, the revived tree's first
      beacon read as a cleared false positive and the detector re-attached
      — the label batches swallowed by the dead serializer were lost for
      good (restart at 14);
    * even with incarnations, a restarted serializer used to wait a full
      beacon period before announcing itself, and in that window it would
      forward labels whose causal past died with it (y visible at T before
      its dependency a; restart at 15).  The first post-restart beacon is
      now sent immediately, ahead of any label on the FIFO channel.
    """
    plan = FaultPlan(name="fast-restart", actions=(
        FaultAction(kind="delay-spike", at=1.0,
                    args={"src": "ser:e0:sI", "dst": "ser:e0:sF",
                          "extra": 1.0}),
        FaultAction(kind="crash-serializer", at=5.0,
                    args={"tree": "sT", "epoch": 0}),
        FaultAction(kind="restart-serializer", at=restart_at,
                    args={"tree": "sT", "epoch": 0}),
    ))
    scenario = build_hardened_chain3("fast-restart", 160.0, plan)
    scenario.run()
    assert scenario.monitor.crosscheck(scenario.log) == []
    assert scenario.log.check_completeness() == []
    assert scenario.failover.recoveries, "state loss must trigger recovery"


def test_short_isolation_plan_found_by_hypothesis_stays_fixed():
    """Pinned falsifying example: sI partitioned for a window barely past
    the detection threshold.  Under the original lossy-partition network
    model the label batches sent into the outage vanished with no failure
    signal at all (no crash, so no incarnation bump) — silent loss on a
    live channel is undetectable by *any* protocol, and the paper's model
    assumes reliable FIFO links.  Partitions now hold traffic and release
    it at heal time; the flood of stale-epoch labels after the emergency
    switch is ignored by the proxies (timestamp fallback owns them)."""
    plan = FaultPlan(name="short-isolation", actions=(
        FaultAction(kind="isolate", at=1.0,
                    args={"process": "ser:e0:sI"}),
        FaultAction(kind="rejoin", at=15.0,
                    args={"process": "ser:e0:sI"}),
    ))
    scenario = build_hardened_chain3("short-isolation", 160.0, plan)
    scenario.run()
    assert scenario.monitor.crosscheck(scenario.log) == []
    assert scenario.log.check_completeness() == []
    assert scenario.failover.recoveries, "degradation must trigger recovery"
    assert scenario.service.current_epoch == 1


# ---------------------------------------------------------------------------
# (ts, source) order is a linear extension of happens-before
# ---------------------------------------------------------------------------

@st.composite
def causal_histories(draw):
    """A random forest of labels: each label may depend on an earlier one
    and then carries a strictly larger timestamp, the way a gear's clock
    always moves past everything it has observed."""
    count = draw(st.integers(min_value=2, max_value=14))
    labels, parents = [], {}
    for index in range(count):
        parent = (draw(st.one_of(st.none(),
                                 st.integers(min_value=0,
                                             max_value=index - 1)))
                  if index else None)
        increment = draw(st.floats(min_value=0.001, max_value=5.0,
                                   allow_nan=False, allow_infinity=False))
        base = labels[parent].ts if parent is not None else float(
            draw(st.integers(min_value=0, max_value=10)))
        label = Label(type=LabelType.UPDATE, src=f"gear-{index}",
                      ts=base + increment, target=f"k{index}",
                      origin_dc="I")
        if parent is not None:
            parents[label] = labels[parent]
        labels.append(label)
    shuffled = draw(st.permutations(labels))
    return shuffled, parents


@settings(deadline=None)
@given(history=causal_histories())
def test_ts_source_sort_respects_happens_before(history):
    shuffled, parents = history
    drained = sorted(shuffled, key=lambda label: label.sort_key())
    position = {label.src: index for index, label in enumerate(drained)}
    for child, parent in parents.items():
        assert position[parent.src] < position[child.src], (
            f"{child!r} drained before its dependency {parent!r}")
