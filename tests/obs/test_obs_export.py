"""Export-format tests: canonical JSONL, Chrome trace events, and the
committed golden trace that pins the ``saturn-obs/v1`` schema."""

import hashlib
import json
from pathlib import Path

from repro.core.label import Label, LabelType
from repro.obs import LabelTracer, SCHEMA
from repro.obs.export import export_chrome, export_jsonl

GOLDEN = Path(__file__).parent / "golden" / "chain3_horizon40.jsonl"


def _sha256(exported: str) -> str:
    return hashlib.sha256(exported.encode("utf-8")).hexdigest()


def _traced() -> LabelTracer:
    tracer = LabelTracer()
    label = Label(LabelType.UPDATE, src="I/gear", ts=1.0, target="g0:a",
                  origin_dc="I")
    tracer.on_issue(label, 1.0, "I")
    tracer.on_flush(label, 2.0, "I")
    tracer.on_serializer_arrive(label, 2.25, "ser:e0:sI", "dc:I")
    tracer.on_serializer_forward(label, 2.25, "ser:e0:sI", "dc:F", 0.5)
    tracer.on_deliver(label, 3.0, "F", 0, "queued")
    tracer.on_visible(label, 3.5, "F", "saturn")
    tracer.annotate(4.0, "epoch-change", "manager", epoch=1)
    return tracer


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------

def test_jsonl_layout_and_schema():
    tracer = _traced()
    exported = export_jsonl(tracer, meta={"source": "unit"})
    lines = [json.loads(line) for line in exported.strip().split("\n")]
    assert lines[0] == {"kind": "header", "schema": SCHEMA,
                        "meta": {"source": "unit"}}
    kinds = [line["kind"] for line in lines]
    assert kinds == ["header", "chain", "annotation", "metrics"]
    chain = lines[1]
    assert chain["label"] == {"ts": 1.0, "src": "I/gear"}
    assert [event["kind"] for event in chain["events"]] == [
        "issue", "flush", "ser-arrive", "ser-forward", "deliver", "visible"]
    assert lines[2]["annotation"] == "epoch-change"
    assert lines[2]["extra"] == {"epoch": 1}
    assert "sink/I/labels_issued" in lines[3]["metrics"]["counters"]


def test_jsonl_is_deterministic_and_meta_changes_digest():
    tracer = _traced()
    first = export_jsonl(tracer)
    second = export_jsonl(tracer)
    assert first == second
    assert _sha256(first) == _sha256(second)
    assert _sha256(first) != _sha256(export_jsonl(tracer, meta={"seed": 2}))


def test_jsonl_chains_sorted_by_label_key():
    tracer = LabelTracer()
    for ts, src in [(5.0, "b"), (5.0, "a"), (1.0, "z")]:
        tracer.on_issue(Label(LabelType.UPDATE, src=src, ts=ts,
                              target="k", origin_dc="I"), ts, "I")
    lines = [json.loads(line) for line in
             export_jsonl(tracer).strip().split("\n")]
    keys = [(line["label"]["ts"], line["label"]["src"])
            for line in lines if line["kind"] == "chain"]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# Chrome trace events
# ---------------------------------------------------------------------------

def test_chrome_export_structure():
    document = export_chrome(_traced())
    assert document["displayTimeUnit"] == "ms"
    events = document["traceEvents"]

    meta_rows = [e for e in events if e["ph"] == "M"]
    named = sorted(row["args"]["name"] for row in meta_rows)
    assert named == ["F", "I", "manager", "ser:e0:sI"]
    pids = {row["args"]["name"]: row["pid"] for row in meta_rows}
    assert sorted(pids.values()) == [1, 2, 3, 4]

    spans = [e for e in events if e["ph"] == "X"]
    root = next(e for e in spans if e["name"] == "label")
    # simulated ms become trace µs
    assert root["ts"] == 1.0 * 1000.0
    assert root["dur"] == (3.5 - 1.0) * 1000.0
    assert root["args"] == {"label_ts": 1.0, "label_src": "I/gear"}
    serializer = next(e for e in spans if e["name"] == "serializer")
    assert serializer["pid"] == pids["ser:e0:sI"]
    assert serializer["dur"] == 0.5 * 1000.0  # the committed dwell

    instants = [e for e in events if e["ph"] == "i"]
    assert [i["name"] for i in instants] == ["epoch-change"]
    assert instants[0]["pid"] == pids["manager"]
    assert json.dumps(document)  # serializable as-is


# ---------------------------------------------------------------------------
# golden trace: the schema contract
# ---------------------------------------------------------------------------

#: what the fixture holds that obs no longer records: it was written while
#: a network tap counted the fabric's traffic into the same registry
NETWORK_COUNTERS = ("network/messages", "network/label_batches",
                    "network/labels")
NETWORK_HISTOGRAMS = ("network/batch_size",)


def _golden_without_network_traffic() -> str:
    *lines, metrics_line = GOLDEN.read_text().splitlines(keepends=True)
    record = json.loads(metrics_line)
    metrics = record["metrics"]
    for name in NETWORK_COUNTERS:
        del metrics["counters"][name]
    for name in NETWORK_HISTOGRAMS:
        del metrics["histograms"][name]
    assert metrics["histograms"] == {}
    return "".join(lines) + json.dumps(record, sort_keys=True,
                                       separators=(",", ":")) + "\n"


def test_golden_chain3_trace_is_reproduced_byte_for_byte():
    """Re-running the pinned chain3 deployment must reproduce the committed
    export exactly, less the network traffic metrics obs no longer
    records.  If this fails because the schema deliberately changed,
    regenerate the fixture (see its header) and bump SCHEMA."""
    from repro.analysis.mc.scenario import build_chain3
    from repro.obs import attach_tracer

    scenario = build_chain3("golden", horizon=40.0)
    hub = attach_tracer(scenario)
    scenario.run()
    exported = hub.export_jsonl(meta={"fixture": "chain3-golden",
                                      "horizon": 40.0})
    assert exported == _golden_without_network_traffic()


def test_golden_fixture_parses_and_pins_schema():
    lines = [json.loads(line)
             for line in GOLDEN.read_text().strip().split("\n")]
    assert lines[0]["schema"] == SCHEMA
    assert sum(1 for line in lines if line["kind"] == "chain") == 17
    assert lines[-1]["kind"] == "metrics"
