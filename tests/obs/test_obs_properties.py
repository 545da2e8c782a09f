"""Property tests for the observability layer.

Under random scripted workloads *and* random bounded fault plans, every
traced run must satisfy the structural trace invariants:

* every label chain is well-formed (monotone time, flush after issue,
  delivery implies flush, saturn-visibility implies delivery, at most one
  visibility per replica) with well-formed nested spans;
* every reconstructed tree path is acyclic;
* per-label segment sums telescope to the measured end-to-end latency;
* the span-derived visibility samples equal — pair by pair, as multisets —
  what the harness's VisibilityRecorder measured on the same run.
"""

from collections import defaultdict

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.mc.scenario import (SITES, build_chain3,
                                        build_hardened_chain3)
from repro.core.service import SaturnService
from repro.faults.plan import FaultAction, FaultPlan
from repro.obs import attach_tracer, chain_problems
from repro.obs.report import label_breakdown

TREES = ("sI", "sF", "sT")
EDGES = (("sI", "sF"), ("sF", "sT"))
KEYS = ("g0:a", "g0:b", "g0:c", "g1:p")


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@st.composite
def workload_specs(draw):
    """1-3 scripted clients issuing random short update/read programs."""
    specs = []
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        site = draw(st.sampled_from(SITES))
        script = [{"op": draw(st.sampled_from(("update", "read"))),
                   "key": draw(st.sampled_from(KEYS))}
                  for _ in range(draw(st.integers(min_value=1, max_value=4)))]
        specs.append({"id": f"rand-{index}", "dc": site, "script": script})
    return specs


@st.composite
def fault_plans(draw):
    """1-3 bounded fault events, each optionally paired with its repair
    (same shape as the chaos-suite safety property)."""
    actions = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
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


# ---------------------------------------------------------------------------
# shared assertions
# ---------------------------------------------------------------------------

def _assert_trace_invariants(scenario, hub) -> None:
    tracer = hub.tracer
    for key, events in tracer.chains():
        assert chain_problems(key, events) == [], (key, events)

        issue = events[0] if events[0].kind == "issue" else None
        if issue is None or issue.extra.get("type") != "update":
            continue
        for visible in (e for e in events if e.kind == "visible"):
            broken_down = label_breakdown(events, issue.node, visible.node)
            if broken_down is None:
                continue  # replay / ts-drain: no tree path to attribute
            path = broken_down["path"]
            assert len(path) == len(set(path)), f"cyclic path {path}"
            assert broken_down["sum_error"] <= 1e-6, broken_down


def _assert_visibility_matches_recorder(scenario, hub) -> None:
    """Span-derived (origin, dest) latency multisets == recorder samples."""
    derived = defaultdict(list)
    for _, events in hub.tracer.chains():
        issue = events[0] if events[0].kind == "issue" else None
        if issue is None or issue.extra.get("type") != "update":
            continue
        for visible in (e for e in events if e.kind == "visible"):
            derived[(issue.node, visible.node)].append(visible.t - issue.t)

    recorder = next(iter(scenario.datacenters.values())).metrics.visibility
    for pair in set(derived) | set(recorder.pairs()):
        assert sorted(derived.get(pair, [])) == sorted(
            recorder.samples(*pair)), pair


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(specs=workload_specs())
def test_random_workloads_produce_wellformed_consistent_traces(specs):
    scenario = build_chain3("random-workload", horizon=120.0, clients=specs)
    hub = attach_tracer(scenario)
    scenario.run()
    _assert_trace_invariants(scenario, hub)
    _assert_visibility_matches_recorder(scenario, hub)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(plan=fault_plans())
def test_random_fault_plans_produce_wellformed_consistent_traces(plan):
    scenario = build_hardened_chain3("random-faults", 160.0, plan,
                                     min_expected_updates=0)
    hub = attach_tracer(scenario)
    scenario.run()
    _assert_trace_invariants(scenario, hub)
    _assert_visibility_matches_recorder(scenario, hub)
