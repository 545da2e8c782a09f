"""Unit tests for the label tracer, span derivation, chain
well-formedness checks, and the per-edge latency breakdown."""

import pytest

from repro.core.label import Label, LabelType
from repro.obs.report import format_breakdown, label_breakdown, pair_breakdown
from repro.obs.trace import (LabelTracer, TraceEvent, chain_problems,
                             derive_spans)
from repro.protocols import PROTOCOLS


def _label(ts: float = 1.0, src: str = "I/gear",
           type_: LabelType = LabelType.UPDATE) -> Label:
    return Label(type_, src=src, ts=ts, target="g0:a", origin_dc="I")


def _trace_full_chain(tracer: LabelTracer, label: Label) -> None:
    """issue at I -> sI -> sF (artificial delay 2) -> deliver/visible at F."""
    tracer.on_issue(label, 1.0, "I")
    tracer.on_flush(label, 2.0, "I")
    tracer.on_serializer_arrive(label, 2.25, "ser:e0:sI", "dc:I")
    tracer.on_serializer_forward(label, 2.25, "ser:e0:sI", "ser:e0:sF", 2.0)
    tracer.on_serializer_arrive(label, 8.25, "ser:e0:sF", "ser:e0:sI")
    tracer.on_serializer_forward(label, 8.25, "ser:e0:sF", "dc:F", 0.0)
    tracer.on_deliver(label, 8.5, "F", 0, "queued")
    tracer.on_visible(label, 9.0, "F", "saturn")


# ---------------------------------------------------------------------------
# recording + the metrics folded from the log
# ---------------------------------------------------------------------------

def _count(tracer: LabelTracer, key: str) -> float:
    return tracer.metrics()["counters"][key]["value"]


def test_tracer_records_chain_in_order_and_feeds_registry():
    tracer = LabelTracer()
    label = _label()
    _trace_full_chain(tracer, label)

    events = tracer.events((label.ts, label.src))
    assert [e.kind for e in events] == [
        "issue", "flush", "ser-arrive", "ser-forward",
        "ser-arrive", "ser-forward", "deliver", "visible"]
    assert events[0].extra == {"type": "update", "target": "g0:a",
                               "origin": "I"}
    assert tracer.num_chains() == 1
    assert _count(tracer, "sink/I/labels_issued") == 1
    assert _count(tracer, "serializer/ser:e0:sI/labels_in") == 1
    assert _count(tracer, "serializer/ser:e0:sF/labels_out") == 1
    assert _count(tracer, "proxy/F/delivered_queued") == 1
    assert _count(tracer, "proxy/F/visible_saturn") == 1


def test_tracer_works_without_registry():
    tracer = LabelTracer()
    tracer.on_issue(_label(), 1.0, "I")
    assert tracer.num_chains() == 1


def test_annotations_and_event_counters():
    tracer = LabelTracer()
    tracer.annotate(5.0, "epoch-change", "manager", epoch=1, emergency=False)
    tracer.annotate(6.0, "sink-park", "I")
    assert [a.kind for a in tracer.annotations] == ["epoch-change",
                                                    "sink-park"]
    assert tracer.annotations[0].extra == {"epoch": 1, "emergency": False}
    assert _count(tracer, "events/manager/epoch_change") == 1
    assert _count(tracer, "events/I/sink_park") == 1


def test_chains_iterate_in_label_key_order():
    tracer = LabelTracer()
    tracer.on_issue(_label(ts=5.0, src="b"), 5.0, "I")
    tracer.on_issue(_label(ts=5.0, src="a"), 5.0, "I")
    tracer.on_issue(_label(ts=1.0, src="z"), 1.0, "I")
    assert [key for key, _ in tracer.chains()] == [
        (1.0, "z"), (5.0, "a"), (5.0, "b")]


# ---------------------------------------------------------------------------
# span derivation
# ---------------------------------------------------------------------------

def test_derive_spans_structure():
    tracer = LabelTracer()
    label = _label()
    _trace_full_chain(tracer, label)
    spans = {(s.name, s.node): s
             for s in derive_spans(tracer.events((label.ts, label.src)))}

    root = spans[("label", "I")]
    assert root.parent is None
    assert root.start == 1.0
    assert root.end == 9.0  # visibility at F is the last thing known

    sink = spans[("sink", "I")]
    assert (sink.start, sink.end, sink.parent) == (1.0, 2.0, "label")

    ser_i = spans[("serializer", "ser:e0:sI")]
    assert (ser_i.start, ser_i.end) == (2.25, 4.25)  # extended by dwell

    proxy = spans[("proxy", "F")]
    assert (proxy.start, proxy.end) == (8.5, 9.0)


def test_derive_spans_empty_chain():
    assert derive_spans([]) == []


def test_span_serialization():
    tracer = LabelTracer()
    label = _label()
    tracer.on_issue(label, 1.0, "I")
    (span,) = derive_spans(tracer.events((label.ts, label.src)))
    assert span.to_obj() == {"name": "label", "node": "I", "start": 1.0,
                             "end": 1.0, "parent": None}


# ---------------------------------------------------------------------------
# chain well-formedness
# ---------------------------------------------------------------------------

def test_chain_problems_accepts_full_chain():
    tracer = LabelTracer()
    label = _label()
    _trace_full_chain(tracer, label)
    key = (label.ts, label.src)
    assert chain_problems(key, tracer.events(key)) == []


@pytest.mark.parametrize("events,needle", [
    ([], "empty chain"),
    ([TraceEvent(2.0, "issue", "I"), TraceEvent(1.0, "flush", "I")],
     "time went backwards"),
    ([TraceEvent(1.0, "flush", "I")], "flush before issue"),
    ([TraceEvent(1.0, "issue", "I"),
      TraceEvent(2.0, "deliver", "F", {"disposition": "queued"})],
     "without a prior flush"),
    ([TraceEvent(1.0, "issue", "I"), TraceEvent(2.0, "flush", "I"),
      TraceEvent(3.0, "visible", "F", {"mode": "saturn"})],
     "without a delivery"),
    ([TraceEvent(1.0, "issue", "I"), TraceEvent(2.0, "flush", "I"),
      TraceEvent(3.0, "deliver", "F", {"disposition": "queued"}),
      TraceEvent(4.0, "visible", "F", {"mode": "saturn"}),
      TraceEvent(5.0, "visible", "F", {"mode": "saturn"})],
     "visible twice"),
])
def test_chain_problems_detects_defects(events, needle):
    problems = chain_problems((1.0, "I/gear"), events)
    assert any(needle in problem for problem in problems), problems


def test_chain_problems_allows_ts_drain_without_delivery():
    # degraded-mode visibility comes from the sink backlog, not the tree
    events = [TraceEvent(1.0, "issue", "I"), TraceEvent(2.0, "flush", "I"),
              TraceEvent(9.0, "visible", "F", {"mode": "ts-drain"})]
    assert chain_problems((1.0, "I/gear"), events) == []


# ---------------------------------------------------------------------------
# per-edge breakdown
# ---------------------------------------------------------------------------

def test_label_breakdown_telescopes_exactly():
    tracer = LabelTracer()
    label = _label()
    _trace_full_chain(tracer, label)
    events = tracer.events((label.ts, label.src))

    broken_down = label_breakdown(events, "I", "F")
    assert broken_down is not None
    assert broken_down["path"] == ["ser:e0:sI", "ser:e0:sF"]
    assert broken_down["end_to_end"] == pytest.approx(8.0)
    assert broken_down["sum_error"] == pytest.approx(0.0, abs=1e-12)
    segments = dict(broken_down["segments"])
    assert segments["sink-dwell I"] == pytest.approx(1.0)
    assert segments["wire I->ser:e0:sI"] == pytest.approx(0.25)
    assert segments["dwell ser:e0:sI"] == pytest.approx(2.0)
    assert segments["wire ser:e0:sI->ser:e0:sF"] == pytest.approx(4.0)
    assert segments["wire ser:e0:sF->dc:F"] == pytest.approx(0.25)
    assert segments["proxy-wait F"] == pytest.approx(0.5)


def test_label_breakdown_incomplete_chain_is_none():
    tracer = LabelTracer()
    label = _label()
    # ts-drain label: visible without ever crossing the tree
    tracer.on_issue(label, 1.0, "I")
    tracer.on_flush(label, 2.0, "I")
    tracer.on_visible(label, 9.0, "F", "ts-drain")
    events = tracer.events((label.ts, label.src))
    assert label_breakdown(events, "I", "F") is None


def test_pair_breakdown_aggregates_and_counts_incomplete():
    tracer = LabelTracer()
    complete = _label(ts=1.0, src="I/g0")
    _trace_full_chain(tracer, complete)
    drained = _label(ts=2.0, src="I/g1")
    tracer.on_issue(drained, 2.0, "I")
    tracer.on_flush(drained, 3.0, "I")
    tracer.on_deliver(drained, 8.0, "F", 0, "queued")
    tracer.on_visible(drained, 9.0, "F", "saturn")

    breakdown = pair_breakdown(tracer, "I", "F")
    assert len(breakdown["labels"]) == 1
    assert breakdown["incomplete"] == 1
    assert breakdown["end_to_end_mean"] == pytest.approx(8.0)
    assert breakdown["max_sum_error"] < 1e-9

    rendered = format_breakdown(breakdown)
    assert "1 complete, 1 incomplete" in rendered
    assert "sink-dwell I" in rendered
    assert "proxy-wait F" in rendered


def test_pair_breakdown_no_matching_labels():
    breakdown = pair_breakdown(LabelTracer(), "I", "F")
    assert breakdown["labels"] == []
    assert breakdown["end_to_end_mean"] == 0.0
    assert "0 complete" in format_breakdown(breakdown)


@pytest.mark.parametrize("system", sorted(PROTOCOLS))
def test_every_protocol_records_update_chains_issued_at_their_origin(system):
    """An obs run records chains on every system of the protocol table,
    and each update that became visible somewhere has exactly one
    ``issue`` atom, recorded at its origin datacenter — whether a tree,
    the bulk channel, stabilization or explicit dependencies carried it."""
    from repro.harness.runner import Cluster, ClusterConfig
    from repro.workloads.synthetic import SyntheticWorkload

    cluster = Cluster(ClusterConfig(system=system, sites=("I", "F", "T"),
                                    clients_per_dc=2, seed=5, obs=True),
                      SyntheticWorkload(correlation="full"))
    cluster.run(duration=200.0, warmup=50.0)
    tracer = cluster.obs_hub.tracer
    updates = 0
    for key, events in tracer.chains():
        if not any(event.kind == "visible" for event in events):
            continue
        issues = [event for event in events if event.kind == "issue"]
        assert len(issues) == 1, (key, [event.kind for event in events])
        assert issues[0].extra["type"] == LabelType.UPDATE.value
        assert issues[0].node == issues[0].extra["origin"]
        assert chain_problems(key, events) == []
        updates += 1
    assert updates > 0


def test_a_run_to_an_int_duration_gauges_the_kernel_at_a_float_t():
    """``Cluster.run(duration=300)`` ends the kernel at 300.0, not 300: an
    int ``t`` would send the three end-of-run kernel gauges through the
    tracer's tuple side list instead of packed records."""
    from repro.harness.runner import Cluster, ClusterConfig
    from repro.workloads.synthetic import SyntheticWorkload

    cluster = Cluster(ClusterConfig(system="saturn", sites=("I", "F", "T"),
                                    clients_per_dc=2, obs=True),
                      SyntheticWorkload())
    cluster.run(duration=300, warmup=100)
    assert type(cluster.sim.now) is float
    assert cluster.obs_hub.tracer._tuples == []
