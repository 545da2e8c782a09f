"""Trace/metrics exports: JSON-lines, Chrome trace-event format, digests.

The JSONL export is the canonical serialization: a header line pinning the
schema version, one line per label chain in ``(ts, src)`` order, the
annotation stream, and the metrics folded from the tracer log.  Keys are
sorted and floats use Python's shortest round-trip repr, so the bytes — and
therefore the SHA-256 digest — are a pure function of the simulated
execution.  The
golden-trace tests commit one export verbatim; change the schema and they
tell you.

Every consumer streams the lines of :func:`iter_jsonl` instead of joining
them: :func:`export_jsonl` appends each line's ASCII bytes to one growing
``bytearray`` and decodes it once, and :func:`digest_jsonl` hashes each
line as it is produced (writing it to a file in the same pass if asked),
so neither holds a list of line strings or a second copy of the export.

The Chrome export produces a ``chrome://tracing`` / Perfetto-loadable
trace-event JSON: one complete (``ph: "X"``) event per derived span with a
process row per simulated node, timestamps converted from simulated
milliseconds to trace microseconds, plus instant events for annotations.
"""

from __future__ import annotations

import hashlib
import json
from typing import IO, Iterator, List, Optional

from repro.obs.trace import LabelTracer, derive_spans

__all__ = ["SCHEMA", "iter_jsonl", "export_jsonl", "export_chrome",
           "digest_jsonl"]

SCHEMA = "saturn-obs/v1"


def _dumps(obj: dict) -> str:
    # ensure_ascii (the default) keeps every line ASCII: one byte per char
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def iter_jsonl(tracer: LabelTracer,
               meta: Optional[dict] = None) -> Iterator[str]:
    """The canonical export, one newline-terminated line at a time; only
    one chain's events exist at any moment."""
    header: dict = {"kind": "header", "schema": SCHEMA}
    if meta:
        header["meta"] = meta
    yield _dumps(header)
    for (ts, src), events in tracer.chains():
        yield _dumps({
            "kind": "chain",
            "label": {"ts": ts, "src": src},
            "events": [event.to_obj() for event in events],
        })
    for event in tracer.annotations:
        record = {"kind": "annotation", "annotation": event.kind,
                  "node": event.node, "t": event.t}
        if event.extra:
            record["extra"] = event.extra
        yield _dumps(record)
    yield _dumps({"kind": "metrics", "metrics": tracer.metrics()})


def export_jsonl(tracer: LabelTracer, meta: Optional[dict] = None) -> str:
    """Canonical JSON-lines export (deterministic bytes).

    The lines go into one ``bytearray``, which is freed in one piece once
    the string is decoded; a join would keep the freed line strings'
    pages resident between live objects.
    """
    buffer = bytearray()
    for line in iter_jsonl(tracer, meta):
        buffer += line.encode("ascii")
    return buffer.decode("ascii")


def digest_jsonl(tracer: LabelTracer, meta: Optional[dict] = None,
                 handle: Optional[IO[str]] = None) -> str:
    """SHA-256 of the canonical export, hashed one line at a time; each
    line is also written to the text *handle* if one is given, so one
    pass writes a trace file and returns its digest."""
    sha = hashlib.sha256()
    for line in iter_jsonl(tracer, meta):
        sha.update(line.encode("ascii"))
        if handle is not None:
            handle.write(line)
    return sha.hexdigest()


def export_chrome(tracer: LabelTracer) -> dict:
    """Chrome trace-event document (``ph:"X"`` spans, µs timestamps)."""
    # stable node -> pid mapping plus process_name metadata rows
    nodes: List[str] = []
    seen = set()
    for _, events in tracer.chains():
        for event in events:
            if event.node not in seen:
                seen.add(event.node)
                nodes.append(event.node)
    for event in tracer.annotations:
        if event.node not in seen:
            seen.add(event.node)
            nodes.append(event.node)
    pid_of = {node: index + 1 for index, node in enumerate(sorted(nodes))}

    trace_events: List[dict] = []
    for node in sorted(pid_of):
        trace_events.append({"ph": "M", "name": "process_name",
                             "pid": pid_of[node], "tid": 0,
                             "args": {"name": node}})
    for tid, ((ts, src), events) in enumerate(tracer.chains(), start=1):
        for span in derive_spans(events):
            trace_events.append({
                "ph": "X", "cat": "label", "name": span.name,
                "pid": pid_of[span.node], "tid": tid,
                "ts": span.start * 1000.0,
                "dur": (span.end - span.start) * 1000.0,
                "args": {"label_ts": ts, "label_src": src},
            })
    for event in tracer.annotations:
        trace_events.append({
            "ph": "i", "s": "g", "cat": "annotation", "name": event.kind,
            "pid": pid_of[event.node], "tid": 0,
            "ts": event.t * 1000.0,
            "args": dict(event.extra),
        })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}
