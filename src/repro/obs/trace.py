"""Label-lifecycle tracing: one append-only log, everything else derived.

Every hook call appends one fixed-size record (``RECORD`` bytes) to the
log, a list of ``bytearray`` chunks of ``CHUNK`` records each, so a
record's number alone locates it and the log holds no Python object per
event.  A label event is packed by its code's precompiled
:class:`struct.Struct`: the code byte, ``t`` and ``label.ts`` as raw
doubles, then node, src and the payload, where every string (node, src,
type, target, origin, from, to, disposition, mode) is an id from one
interned-atom table and ``dwell`` / ``epoch`` are raw numbers.  Each hook
has this one write path, so its arguments are the simulator's own values:
``t``, ``ts`` and ``dwell`` are doubles, ``epoch`` an int64 and every atom
a ``str`` or ``None``.  A count is packed the same way (code, ``t``,
component and name ids), and so is a gauge whose value is an ``int``
(int64, code ``INT_GAUGE``) or a ``float`` (double, code ``GAUGE``), when
``t`` is a float.  Annotations, and gauges and counts at an int ``t`` or
with a value of any other type (a ``bool``), keep a typed tuple in a side
list, and their record in the log is that tuple's index, so there is
still one log order.  Every record reads back as exactly the tuple it
stands for (:meth:`LabelTracer.records`):

    label event   (t, code, node, label.ts, label.src, *payload)
    annotation    (t, ANNOTATE, node, kind, key, value, key, value, ...)
    gauge         (t, GAUGE, component, name, value)
    count         (t, COUNT, component, name)

A label is identified by its ``(ts, src)`` key — the one the remote proxies
deduplicate on — and its *chain* is the chronological list of its records,
handed to readers as :class:`TraceEvent` objects:

``issue``        minted at the origin datacenter's label sink;
``flush``        shipped towards the tree by the sink (``replayed`` marks
                 the degraded-mode backlog replay);
``ser-arrive``   received by a serializer (``from`` = sending process);
``ser-forward``  routed out of a serializer (``to`` = target process,
                 ``dwell`` = artificial edge delay δij + chain latency the
                 batch will sit on before hitting the wire);
``deliver``      a label batch reached a remote proxy (``disposition``
                 records what the proxy did with it);
``visible``      the update became visible at a replica (``mode`` is
                 ``saturn``, ``ts-drain`` — the degraded (ts,source)
                 drain — or ``eventual``);
``finalized``    a non-update label (heartbeat / migration / epoch mark)
                 completed its turn in the visibility pipeline.

Cluster-wide happenings that are not tied to one label (failover state
transitions, sink park/replay, epoch changes and adoptions) are
*annotations*.  Queue depths, credits and admission decisions are *gauge*
and *count* records.  Records are decoded when they are read: chains are
indexed from the tail recorded since the last read (record numbers in one
``array('I')`` per label), and the counters and gauges of
:meth:`LabelTracer.metrics` are one fold over a stream of the records.

Everything stored here is a pure function of simulated time and process
names, so a traced run exports bit-identically across double runs of the
same seed.  The tracer never schedules events and never touches the
network, which keeps the traced execution itself identical to the untraced
one (see the transparency tests in tests/obs).
"""

from __future__ import annotations

from array import array
from struct import Struct, calcsize
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.label import Label

__all__ = ["TraceEvent", "Span", "LabelTracer", "WINDOW", "chain_problems",
           "derive_spans"]

LabelKey = Tuple[float, str]

#: width (simulated ms) of the buckets a counter's series is cut into
WINDOW = 50.0


class TraceEvent:
    """One step of a label's life (or one cluster annotation)."""

    __slots__ = ("t", "kind", "node", "extra")

    def __init__(self, t: float, kind: str, node: str,
                 extra: Optional[dict] = None) -> None:
        self.t = t
        self.kind = kind
        self.node = node
        self.extra = extra if extra is not None else {}

    def to_obj(self) -> dict:
        obj = {"t": self.t, "kind": self.kind, "node": self.node}
        if self.extra:
            obj["extra"] = self.extra
        return obj

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceEvent(t={self.t!r}, kind={self.kind!r}, node={self.node!r})"


class Span:
    """A derived ``[start, end]`` interval in a label's lifecycle."""

    __slots__ = ("name", "node", "start", "end", "parent")

    def __init__(self, name: str, node: str, start: float, end: float,
                 parent: Optional[str] = None) -> None:
        self.name = name
        self.node = node
        self.start = start
        self.end = end
        self.parent = parent

    def to_obj(self) -> dict:
        return {"name": self.name, "node": self.node,
                "start": self.start, "end": self.end, "parent": self.parent}


# record codes; a label event's code indexes _KINDS, every packed
# record's code indexes _LAYOUTS, and a TUPLE record stands for a tuple of
# the side list (whose own code is any of the others but INT_GAUGE, which
# reads back as a GAUGE tuple)
(ISSUE, FLUSH, REPLAY, SER_ARRIVE, SER_FORWARD, DELIVER, VISIBLE, FINALIZED,
 ANNOTATE, GAUGE, COUNT, TUPLE, INT_GAUGE) = range(13)

#: code -> (event kind, names of the payload fields, counter component
#: prefix, counter name, index of the payload field appended to that name)
_KINDS = (
    ("issue", ("type", "target", "origin"), "sink/", "labels_issued", 0),
    ("flush", (), "sink/", "labels_flushed", 0),
    ("flush", ("replayed",), "sink/", "labels_replayed", 0),
    ("ser-arrive", ("from",), "serializer/", "labels_in", 0),
    ("ser-forward", ("to", "dwell"), "serializer/", "labels_out", 0),
    ("deliver", ("epoch", "disposition"), "proxy/", "delivered_", 6),
    ("visible", ("mode",), "proxy/", "visible_", 5),
    ("finalized", (), None, None, 0),
)

#: bytes per record: the widest label event (code, two doubles, five ids)
RECORD = calcsize("<BddIIIII")


def _layout(payload: str, decode: Callable[[tuple, list], tuple],
            head: str = "BddII"
            ) -> Tuple[Struct, Callable[[tuple, list], tuple]]:
    """A packed record: *head* (a label event's code, t, ts, node id and
    src id), then *payload* (struct format characters; ``I`` is an atom
    id), padded to ``RECORD``; and *decode*, which turns its unpacked
    fields ``f`` and the atom list ``a`` back into the record's tuple."""
    fields = f"<{head}{payload}"
    return Struct(f"{fields}{RECORD - calcsize(fields)}x"), decode


#: code -> (record layout, decoder); None for the codes never packed
_LAYOUTS = (
    # ISSUE: type, target, origin
    _layout("III", lambda f, a: (f[1], ISSUE, a[f[3]], f[2], a[f[4]],
                                 a[f[5]], a[f[6]], a[f[7]])),
    # FLUSH
    _layout("", lambda f, a: (f[1], FLUSH, a[f[3]], f[2], a[f[4]])),
    # REPLAY: replayed (always True)
    _layout("?", lambda f, a: (f[1], REPLAY, a[f[3]], f[2], a[f[4]],
                               f[5])),
    # SER_ARRIVE: from
    _layout("I", lambda f, a: (f[1], SER_ARRIVE, a[f[3]], f[2], a[f[4]],
                               a[f[5]])),
    # SER_FORWARD: to, dwell
    _layout("Id", lambda f, a: (f[1], SER_FORWARD, a[f[3]], f[2], a[f[4]],
                                a[f[5]], f[6])),
    # DELIVER: epoch, disposition
    _layout("qI", lambda f, a: (f[1], DELIVER, a[f[3]], f[2], a[f[4]],
                                f[5], a[f[6]])),
    # VISIBLE: mode
    _layout("I", lambda f, a: (f[1], VISIBLE, a[f[3]], f[2], a[f[4]],
                               a[f[5]])),
    # FINALIZED
    _layout("", lambda f, a: (f[1], FINALIZED, a[f[3]], f[2], a[f[4]])),
    None,
    # GAUGE of a float: code, t, component, name, value
    _layout("d", lambda f, a: (f[1], GAUGE, a[f[2]], a[f[3]], f[4]),
            head="BdII"),
    # COUNT: code, t, component, name
    _layout("", lambda f, a: (f[1], COUNT, a[f[2]], a[f[3]]), head="BdII"),
    None,
    # INT_GAUGE, a GAUGE of an int: code, t, component, name, value
    _layout("q", lambda f, a: (f[1], GAUGE, a[f[2]], a[f[3]], f[4]),
            head="BdII"),
)
(_ISSUE, _FLUSH, _REPLAY, _SER_ARRIVE, _SER_FORWARD, _DELIVER, _VISIBLE,
 _FINALIZED) = (layout.pack for layout, _ in _LAYOUTS[:ANNOTATE])
_GAUGE, _COUNT, _INT_GAUGE = (_LAYOUTS[code][0].pack
                              for code in (GAUGE, COUNT, INT_GAUGE))
#: the values an INT_GAUGE record holds
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
#: records per chunk of the log (just under 64 KiB).  Every chunk fills
#: to the same size and stops: one buffer grown by reallocation over a
#: whole run left the heap in one of two layouts from run to run, and the
#: peak RSS of the geo7_writes_obs benchmark read 65.4 or 68.9 MiB
CHUNK = (1 << 16) // RECORD
_CHUNK_BYTES = CHUNK * RECORD
#: a TUPLE record: the index of its tuple in the side list
_TUPLE = Struct(f"<BI{RECORD - 5}x")
#: what indexing needs of any record: the code, a TUPLE record's index,
#: and a label event's ts and src id
_KEY = Struct(f"<BI4xd4xI{RECORD - 25}x")


class _AtomTable(dict):
    """atom -> id, assigning the next id on a miss; ``atoms[id]`` is the
    atom.  Atoms are the process names and tags of label events: ``str``
    or ``None``."""

    __slots__ = ("atoms",)

    def __init__(self) -> None:
        super().__init__()
        self.atoms: list = []

    def __missing__(self, atom: Optional[str]) -> int:
        atoms = self.atoms
        atom_id = self[atom] = len(atoms)
        atoms.append(atom)
        return atom_id


def _event(record: tuple) -> TraceEvent:
    if record[1] == ANNOTATE:
        return TraceEvent(record[0], record[3], record[2],
                          dict(zip(record[4::2], record[5::2])))
    kind = _KINDS[record[1]]
    return TraceEvent(record[0], kind[0], record[2],
                      dict(zip(kind[1], record[5:])))


class LabelTracer:
    """One append-only log of what happened to every label, plus cluster
    annotations; chains, spans and counters are derived from it on read.

    Hot-path call sites hold a reference and guard with
    ``if self.obs is not None`` so the disabled cost is one attribute load;
    enabled, a label hook is one ``pack`` of a fixed-size record, one
    ``+=`` onto the current chunk and a test whether that chunk is full.
    Chain readers only ever index the tail recorded since the last read,
    so interleaving reads with recording stays linear; :meth:`metrics`
    folds the whole log each time it is called (at export, after the
    run).
    """

    def __init__(self) -> None:
        #: the chunk being filled, the last of _chunks
        self._log = bytearray()
        self._chunks: List[bytearray] = [self._log]
        self._ids = _AtomTable()
        #: the typed tuples that TUPLE records stand for
        self._tuples: List[tuple] = []
        #: (ts, src) -> numbers of the label's records; key insertion
        #: order is simulation order, but reads sort by key
        self._positions: Dict[LabelKey, array] = {}
        self._annotations: List[TraceEvent] = []
        self._indexed = 0      # records already in the two above

    # -- recording ----------------------------------------------------------

    def record(self, record: tuple) -> None:
        """Append *record*, a tuple of the module docstring's forms, as
        itself: the writer of annotations, of gauges and counts that
        cannot be packed, and of records replayed from :meth:`records`."""
        self._append(_TUPLE.pack(TUPLE, len(self._tuples)))
        self._tuples.append(record)

    def _append(self, packed: bytes) -> None:
        log = self._log
        log += packed
        if len(log) == _CHUNK_BYTES:
            self._seal()

    def on_issue(self, label: Label, t: float, dc: str) -> None:
        ids = self._ids
        log = self._log
        log += _ISSUE(ISSUE, t, label.ts, ids[dc], ids[label.src],
                      ids[label.type._value_], ids[label.target],
                      ids[label.origin_dc])
        if len(log) == _CHUNK_BYTES:
            self._seal()

    def on_flush(self, label: Label, t: float, dc: str,
                 replayed: bool = False) -> None:
        ids = self._ids
        log = self._log
        log += (_REPLAY(REPLAY, t, label.ts, ids[dc], ids[label.src], True)
                if replayed
                else _FLUSH(FLUSH, t, label.ts, ids[dc], ids[label.src]))
        if len(log) == _CHUNK_BYTES:
            self._seal()

    def on_serializer_arrive(self, label: Label, t: float, node: str,
                             sender: str) -> None:
        ids = self._ids
        log = self._log
        log += _SER_ARRIVE(SER_ARRIVE, t, label.ts, ids[node], ids[label.src],
                           ids[sender])
        if len(log) == _CHUNK_BYTES:
            self._seal()

    def on_serializer_forward(self, label: Label, t: float, node: str,
                              to: str, dwell: float) -> None:
        ids = self._ids
        log = self._log
        log += _SER_FORWARD(SER_FORWARD, t, label.ts, ids[node],
                            ids[label.src], ids[to], dwell)
        if len(log) == _CHUNK_BYTES:
            self._seal()

    def on_deliver(self, label: Label, t: float, dc: str, epoch: int,
                   disposition: str) -> None:
        ids = self._ids
        log = self._log
        log += _DELIVER(DELIVER, t, label.ts, ids[dc], ids[label.src], epoch,
                        ids[disposition])
        if len(log) == _CHUNK_BYTES:
            self._seal()

    def on_visible(self, label: Label, t: float, dc: str, mode: str) -> None:
        ids = self._ids
        log = self._log
        log += _VISIBLE(VISIBLE, t, label.ts, ids[dc], ids[label.src],
                        ids[mode])
        if len(log) == _CHUNK_BYTES:
            self._seal()

    def on_finalized(self, label: Label, t: float, dc: str) -> None:
        ids = self._ids
        log = self._log
        log += _FINALIZED(FINALIZED, t, label.ts, ids[dc], ids[label.src])
        if len(log) == _CHUNK_BYTES:
            self._seal()

    def annotate(self, t: float, kind: str, node: str, **extra) -> None:
        record = [t, ANNOTATE, node, kind]
        for item in extra.items():
            record.extend(item)
        self.record(tuple(record))

    def gauge(self, t: float, component: str, name: str,
              value: float) -> None:
        if type(t) is float:
            kind = type(value)
            if kind is float:
                ids = self._ids
                self._append(_GAUGE(GAUGE, t, ids[component], ids[name],
                                    value))
                return
            if kind is int and _INT64_MIN <= value <= _INT64_MAX:
                ids = self._ids
                self._append(_INT_GAUGE(INT_GAUGE, t, ids[component],
                                        ids[name], value))
                return
        self.record((t, GAUGE, component, name, value))

    def count(self, t: float, component: str, name: str) -> None:
        if type(t) is float:
            ids = self._ids
            self._append(_COUNT(COUNT, t, ids[component], ids[name]))
        else:
            self.record((t, COUNT, component, name))

    def _seal(self) -> None:
        """Start the next chunk: the current one is full."""
        self._log = bytearray()
        self._chunks.append(self._log)

    # -- reading ------------------------------------------------------------

    def _recorded(self) -> int:
        """The number of records in the log."""
        return (len(self._chunks) - 1) * CHUNK + len(self._log) // RECORD

    def _decode(self, number: int) -> tuple:
        """Record *number* as the tuple it stands for."""
        log = self._chunks[number // CHUNK]
        offset = number % CHUNK * RECORD
        code = log[offset]
        if code == TUPLE:
            return self._tuples[_TUPLE.unpack_from(log, offset)[1]]
        layout, decode = _LAYOUTS[code]
        return decode(layout.unpack_from(log, offset), self._ids.atoms)

    def records(self) -> Iterator[tuple]:
        """Every record, in log order, as the tuple it stands for; a
        stream, decoded one record at a time."""
        for number in range(self._recorded()):
            yield self._decode(number)

    def _index(self) -> Dict[LabelKey, array]:
        positions = self._positions
        start = self._indexed
        atoms = self._ids.atoms
        tuples = self._tuples
        for chunk_at in range(start // CHUNK, len(self._chunks)):
            first = max(start, chunk_at * CHUNK)
            # a copy of the chunk from its first record not yet indexed
            fresh = self._chunks[chunk_at][(first % CHUNK) * RECORD:]
            for number, (code, tuple_at, ts, src) in enumerate(
                    _KEY.iter_unpack(fresh), first):
                if code == TUPLE:
                    record = tuples[tuple_at]
                    code = record[1]
                    if code == ANNOTATE:
                        self._annotations.append(_event(record))
                    if code >= ANNOTATE:
                        continue
                    key = (record[3], record[4])
                elif code >= ANNOTATE:
                    continue       # a packed gauge or count
                else:
                    key = (ts, atoms[src])
                numbers = positions.get(key)
                if numbers is None:
                    positions[key] = array("I", (number,))
                else:
                    numbers.append(number)
        self._indexed = self._recorded()
        return positions

    @property
    def annotations(self) -> List[TraceEvent]:
        self._index()
        return self._annotations

    def chains(self) -> Iterator[Tuple[LabelKey, List[TraceEvent]]]:
        """Chains in ``(ts, src)`` order (deterministic across runs); each
        event list is built for the caller and not kept."""
        for key in sorted(self._index()):
            yield key, self.events(key)

    def events(self, key: LabelKey) -> List[TraceEvent]:
        decode = self._decode
        return [_event(decode(number))
                for number in self._index().get(key, ())]

    def num_chains(self) -> int:
        return len(self._index())

    def metrics(self) -> dict:
        """Counters and gauges keyed by ``component/name``, folded from
        the stream of :meth:`records`.

        A label event counts under its kind's component prefix and name,
        an annotation under ``events/<node>``, a count record under its own
        key; each counter also sums its records into ``WINDOW``-ms buckets
        of simulated time.  A gauge is its last write in log order, with
        the number of writes.  Keys are sorted by ``(component, name)`` so
        the serialized form is bit-deterministic.
        """
        counters: Dict[Tuple[str, str], Dict] = {}   # key -> buckets
        gauges: Dict[Tuple[str, str], dict] = {}
        for record in self.records():
            t, code, node = record[:3]
            if code < ANNOTATE:
                _, _, prefix, name, suffix_at = _KINDS[code]
                if prefix is None:
                    continue
                if suffix_at:
                    name += record[suffix_at]
                key = (prefix + node, name)
            elif code == ANNOTATE:
                key = ("events/" + node, record[3].replace("-", "_"))
            elif code == GAUGE:
                key = (node, record[3])
                updates = gauges[key]["updates"] if key in gauges else 0
                gauges[key] = {"value": record[4], "at": t,
                               "updates": updates + 1}
                continue
            else:
                key = (node, record[3])
            buckets = counters.setdefault(key, {})
            bucket = int(t // WINDOW)
            buckets[bucket] = buckets.get(bucket, 0.0) + 1.0

        def section(metrics: Dict[Tuple[str, str], dict]) -> dict:
            return {f"{component}/{name}": metrics[component, name]
                    for component, name in sorted(metrics)}

        for key, buckets in counters.items():
            counters[key] = {"value": sum(buckets.values()),
                             "series": [[bucket * WINDOW, buckets[bucket]]
                                        for bucket in sorted(buckets)]}
        return {
            "window": WINDOW,
            "counters": section(counters),
            "gauges": section(gauges),
            # nothing writes histograms; the saturn-obs/v1 schema keeps
            # the (empty) section
            "histograms": {},
        }


# ---------------------------------------------------------------------------
# span derivation
# ---------------------------------------------------------------------------

def _event_end(event: TraceEvent) -> float:
    if event.kind == "ser-forward":
        return event.t + event.extra.get("dwell", 0.0)
    return event.t


def derive_spans(events: List[TraceEvent]) -> List[Span]:
    """Derive the span tree of one chain.

    The root span covers the label's whole life (issue to the last thing
    known about it, including dwell time a final forward committed to).
    Children: the sink dwell at the origin, one span per serializer visit
    (arrival to the departure of its last forward), and one per destination
    proxy (first delivery to visibility).  Children nest inside the root by
    construction.
    """
    if not events:
        return []
    start = events[0].t
    end = start
    for event in events:
        event_end = _event_end(event)
        if event_end > end:
            end = event_end
    root = Span("label", events[0].node, start, end, parent=None)
    spans = [root]

    # sink span: issue -> first flush at the same node
    issue = events[0] if events[0].kind == "issue" else None
    if issue is not None:
        for event in events:
            if event.kind == "flush" and event.node == issue.node:
                spans.append(Span("sink", issue.node, issue.t, event.t,
                                  parent="label"))
                break

    # serializer visits: each ser-arrive opens a visit; forwards at the
    # same node extend it until the next arrive at that node
    open_visits: Dict[str, Span] = {}
    for event in events:
        if event.kind == "ser-arrive":
            span = Span("serializer", event.node, event.t, event.t,
                        parent="label")
            open_visits[event.node] = span
            spans.append(span)
        elif event.kind == "ser-forward":
            span = open_visits.get(event.node)
            if span is not None:
                departure = _event_end(event)
                if departure > span.end:
                    span.end = departure

    # proxy spans: first deliver at a node -> visible/finalized there
    first_deliver: Dict[str, TraceEvent] = {}
    for event in events:
        if event.kind == "deliver" and event.node not in first_deliver:
            first_deliver[event.node] = event
    for node in sorted(first_deliver):
        deliver = first_deliver[node]
        span_end = deliver.t
        for event in events:
            # a ts-drain visibility can predate a (stale) late delivery;
            # the proxy span only covers delivery -> resolution
            if (event.kind in ("visible", "finalized")
                    and event.node == node and event.t >= deliver.t):
                span_end = event.t
                break
        spans.append(Span("proxy", node, deliver.t, span_end,
                          parent="label"))
    return spans


# ---------------------------------------------------------------------------
# chain well-formedness (the test oracle over every traced chain)
# ---------------------------------------------------------------------------

def chain_problems(key: LabelKey, events: List[TraceEvent]) -> List[str]:
    """Structural defects of one chain; empty means well-formed.

    Checked invariants: events are recorded in nondecreasing simulated
    time; a saturn-mode ``visible`` is preceded by a ``deliver`` at the
    same node; every ``deliver`` is preceded by a ``flush``; every
    ``flush`` follows the ``issue``; a node sees at most one ``visible``;
    and all derived spans are well-formed intervals nested in the root.
    """
    problems: List[str] = []
    tag = f"label ({key[0]!r}, {key[1]!r})"
    if not events:
        problems.append(f"{tag}: empty chain")
        return problems
    last_t = events[0].t
    for event in events:
        if event.t < last_t:
            problems.append(f"{tag}: time went backwards at {event.kind}")
        last_t = event.t

    issue_t: Optional[float] = None
    flush_t: Optional[float] = None
    delivered_t: Dict[str, float] = {}
    visible_nodes: List[str] = []
    for event in events:
        if event.kind == "issue":
            if issue_t is None:
                issue_t = event.t
        elif event.kind == "flush":
            if issue_t is None:
                problems.append(f"{tag}: flush before issue")
            if flush_t is None:
                flush_t = event.t
        elif event.kind == "deliver":
            if flush_t is None:
                problems.append(f"{tag}: deliver at {event.node} "
                                f"without a prior flush")
            if event.node not in delivered_t:
                delivered_t[event.node] = event.t
        elif event.kind == "visible":
            if event.node in visible_nodes:
                problems.append(f"{tag}: visible twice at {event.node}")
            visible_nodes.append(event.node)
            if (event.extra.get("mode") == "saturn"
                    and event.node not in delivered_t):
                problems.append(f"{tag}: saturn-visible at {event.node} "
                                f"without a delivery")

    spans = derive_spans(events)
    if spans:
        root = spans[0]
        for span in spans:
            if span.end < span.start:
                problems.append(f"{tag}: span {span.name}@{span.node} "
                                f"ends before it starts")
            if span.parent == "label" and (span.start < root.start
                                           or span.end > root.end):
                problems.append(f"{tag}: span {span.name}@{span.node} "
                                f"escapes the root span")
    return problems
