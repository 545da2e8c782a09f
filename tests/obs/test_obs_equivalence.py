"""The log-backed tracer against the recorder it replaced.

``ReferenceTracer`` below is the old implementation, kept verbatim as an
executable specification: every hook looked its chain up, allocated a
``TraceEvent`` plus an ``extra`` dict, and incremented a windowed registry
counter on the spot.  Its ``gauge``/``count`` are the direct registry
writes the sink, the serializer and the admission controller made before
they became log records.  The registry it writes (``MetricsRegistry``,
with its ``Counter`` and ``Gauge``) is kept here too: it is the reference
that :meth:`LabelTracer.metrics`, a fold over the log, must equal.
The reference also keeps the tuple log the tracer kept before its records
were packed into bytes, as the specification of ``LabelTracer.records()``.
Hypothesis drives both recorders with the same random hook sequences —
all ten hooks, the seven label hooks with the simulator's own values
(float times, int epochs, string atoms), annotations, gauges and counts
with int and float times and values that are equal across types (``1``,
``1.0``, ``True``), and reads interleaved at random points — and
everything a reader can see must be equal: chains, annotations, every
counter's value and series, every gauge, the ``saturn-obs/v1`` bytes, the
Chrome document, and every record, field by field and type by type.
Whole runs (two chaos scenarios and an open-loop overload run) feed both
through every hook call and must fold to the same metrics and read back
the same records.  The streamed export is held to the joined lines it
replaced, and its digest to the digest of the whole export, without
holding a copy of it.

The two pinned digests were captured from the old recorder before it was
replaced (commit 9ad2de5): the full ``geo7_writes_obs`` benchmark block and
the chain3 golden fixture.
"""

import hashlib
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.label import Label, LabelType
from repro.obs import LabelTracer
from repro.obs.export import export_chrome, export_jsonl, iter_jsonl
from repro.obs.trace import (ANNOTATE, CHUNK, COUNT, DELIVER, FINALIZED,
                              FLUSH, GAUGE, ISSUE, REPLAY, SER_ARRIVE,
                              SER_FORWARD, VISIBLE, TraceEvent)

GOLDEN = Path(__file__).parent / "golden" / "chain3_horizon40.jsonl"
CHAIN3_GOLDEN_SHA256 = \
    "d456521e7806d0df0c63c1ece42af2aaa4f8f122e954dc8b8e2b7ba1eebaf49f"
GEO7_WRITES_OBS_SHA256 = \
    "eb4aac1737fb01916482450d94f5b5cc7b7553ffbdc77f88d8081e8569cc0267"
GEO7_WRITES_OBS_BYTES = 8_177_402
GEO7_WRITES_OBS_EVENTS = 95_284


# ---------------------------------------------------------------------------
# the old registry: the direct write path the fold replaced
# ---------------------------------------------------------------------------

class Counter:
    """Monotone accumulator, optionally windowed over simulated time."""

    def __init__(self, window=0.0):
        self.value = 0.0
        self.window = window
        self._buckets = {}

    def inc(self, amount=1.0, at=0.0):
        self.value += amount
        if self.window > 0:
            bucket = int(at // self.window)
            self._buckets[bucket] = self._buckets.get(bucket, 0.0) + amount

    def series(self):
        return [(bucket * self.window, self._buckets[bucket])
                for bucket in sorted(self._buckets)]

    def to_obj(self):
        obj = {"value": self.value}
        if self._buckets:
            obj["series"] = [[t, v] for t, v in self.series()]
        return obj


class Gauge:
    """Last-write-wins sample with its simulated timestamp."""

    def __init__(self):
        self.value = 0.0
        self.at = 0.0
        self.updates = 0

    def set(self, value, at=0.0):
        self.value = value
        self.at = at
        self.updates += 1

    def to_obj(self):
        return {"value": self.value, "at": self.at, "updates": self.updates}


class MetricsRegistry:
    """Lazily-created metrics keyed by ``(component, name)``."""

    def __init__(self, window=0.0):
        self.window = window
        self._counters = {}
        self._gauges = {}

    def counter(self, component, name):
        key = (component, name)
        if key not in self._counters:
            self._counters[key] = Counter(window=self.window)
        return self._counters[key]

    def gauge(self, component, name):
        key = (component, name)
        if key not in self._gauges:
            self._gauges[key] = Gauge()
        return self._gauges[key]

    def to_dict(self):
        def section(metrics):
            return {f"{component}/{name}": metrics[(component, name)].to_obj()
                    for component, name in sorted(metrics)}

        return {"window": self.window,
                "counters": section(self._counters),
                "gauges": section(self._gauges),
                "histograms": {}}


# ---------------------------------------------------------------------------
# the old recorder
# ---------------------------------------------------------------------------

class ReferenceTracer:
    def __init__(self):
        self._chains = {}
        self.annotations = []
        self.registry = MetricsRegistry(window=50.0)
        #: the tuple log: what each hook appended before records were packed
        self.log = []

    def _events(self, label):
        return self._chains.setdefault((label.ts, label.src), [])

    def _inc(self, component, name, t):
        self.registry.counter(component, name).inc(at=t)

    def on_issue(self, label, t, dc):
        self._events(label).append(TraceEvent(t, "issue", dc, {
            "type": label.type.value, "target": label.target,
            "origin": label.origin_dc}))
        self._inc(f"sink/{dc}", "labels_issued", t)
        self.log.append((t, ISSUE, dc, label.ts, label.src, label.type.value,
                         label.target, label.origin_dc))

    def on_flush(self, label, t, dc, replayed=False):
        extra = {"replayed": True} if replayed else None
        self._events(label).append(TraceEvent(t, "flush", dc, extra))
        self._inc(f"sink/{dc}",
                  "labels_replayed" if replayed else "labels_flushed", t)
        self.log.append((t, REPLAY, dc, label.ts, label.src, True)
                        if replayed else (t, FLUSH, dc, label.ts, label.src))

    def on_serializer_arrive(self, label, t, node, sender):
        self._events(label).append(
            TraceEvent(t, "ser-arrive", node, {"from": sender}))
        self._inc(f"serializer/{node}", "labels_in", t)
        self.log.append((t, SER_ARRIVE, node, label.ts, label.src, sender))

    def on_serializer_forward(self, label, t, node, to, dwell):
        self._events(label).append(
            TraceEvent(t, "ser-forward", node, {"to": to, "dwell": dwell}))
        self._inc(f"serializer/{node}", "labels_out", t)
        self.log.append((t, SER_FORWARD, node, label.ts, label.src, to,
                         dwell))

    def on_deliver(self, label, t, dc, epoch, disposition):
        self._events(label).append(TraceEvent(t, "deliver", dc, {
            "epoch": epoch, "disposition": disposition}))
        self._inc(f"proxy/{dc}", f"delivered_{disposition}", t)
        self.log.append((t, DELIVER, dc, label.ts, label.src, epoch,
                         disposition))

    def on_visible(self, label, t, dc, mode):
        self._events(label).append(
            TraceEvent(t, "visible", dc, {"mode": mode}))
        self._inc(f"proxy/{dc}", f"visible_{mode}", t)
        self.log.append((t, VISIBLE, dc, label.ts, label.src, mode))

    def on_finalized(self, label, t, dc):
        self._events(label).append(TraceEvent(t, "finalized", dc))
        self.log.append((t, FINALIZED, dc, label.ts, label.src))

    def annotate(self, t, kind, node, **extra):
        self.annotations.append(
            TraceEvent(t, kind, node, extra if extra else None))
        self._inc(f"events/{node}", kind.replace("-", "_"), t)
        record = [t, ANNOTATE, node, kind]
        for item in extra.items():
            record.extend(item)
        self.log.append(tuple(record))

    def gauge(self, t, component, name, value):
        self.registry.gauge(component, name).set(value, at=t)
        self.log.append((t, GAUGE, component, name, value))

    def count(self, t, component, name):
        self._inc(component, name, t)
        self.log.append((t, COUNT, component, name))

    def chains(self):
        for key in sorted(self._chains):
            yield key, self._chains[key]

    def events(self, key):
        return self._chains.get(key, [])

    def num_chains(self):
        return len(self._chains)

    def metrics(self):
        return self.registry.to_dict()


HOOKS = ("on_issue", "on_flush", "on_serializer_arrive",
         "on_serializer_forward", "on_deliver", "on_visible", "on_finalized",
         "annotate", "gauge", "count")


def tee(tracer):
    """Make every hook call on *tracer* also reach a fresh
    ``ReferenceTracer`` (the instrumented components look the hook up on
    each call), and return that reference."""
    reference = ReferenceTracer()
    for name in HOOKS:
        def both(*args, _mine=getattr(tracer, name),
                 _old=getattr(reference, name), **kwargs):
            _mine(*args, **kwargs)
            _old(*args, **kwargs)
        setattr(tracer, name, both)
    return reference


# ---------------------------------------------------------------------------
# strategies: one step = (target, method name, args, kwargs)
# ---------------------------------------------------------------------------

NODES = ("I", "F", "T", "ser:e0:sI", "ser:e1:sF", "dc:I", "manager")
# a label hook's time: the simulator's `now` while it runs an event
label_times = st.one_of(st.sampled_from((0.0, 49.999, 50.0, 50.0, 1e6)),
                        st.floats(min_value=0.0, max_value=500.0))
# an annotation, gauge or count may also be written at an int time, which
# is what `Simulator.run(until=200)` leaves in `now`
times = st.one_of(label_times, st.sampled_from((200, 0)),
                  st.integers(min_value=0, max_value=500))
nodes = st.sampled_from(NODES)
labels = st.builds(
    Label, st.sampled_from(LabelType),
    src=st.sampled_from(("I/gear0", "I/gear1", "F/gear0", "T/sink")),
    ts=st.sampled_from((0.5, 1.0, 1.25, 2.0, 3.0)),
    target=st.sampled_from((None, "g0:a", "T")),
    origin_dc=st.sampled_from(("", "I", "F")))
# equal across types, one dict key: a typed tuple must keep each as itself
same_value = st.sampled_from((1, 1.0, True, False, 0, -0.0))
atoms = st.one_of(st.integers(-3, 3), st.booleans(), same_value,
                  st.sampled_from(("x", "", "emergency")),
                  st.floats(allow_nan=False, allow_infinity=False, width=16))
# the gauge/count keys the overload components use, plus one that collides
# with a tracer-derived counter
components = st.sampled_from(("sink:I", "serializer:sI", "admission:F",
                              "sink/I"))
metric_names = st.sampled_from(("deferred", "credits", "inflight",
                                "admitted", "labels_issued"))


def _hook(name, *args, **kwargs):
    return st.tuples(st.just("tracer"), st.just(name), st.tuples(*args),
                     st.fixed_dictionaries(kwargs))


steps = st.one_of(
    _hook("on_issue", labels, label_times, nodes),
    _hook("on_flush", labels, label_times, nodes),
    _hook("on_flush", labels, label_times, nodes, replayed=st.booleans()),
    _hook("on_serializer_arrive", labels, label_times, nodes, nodes),
    _hook("on_serializer_forward", labels, label_times, nodes, nodes,
          st.sampled_from((0.0, 0.25, 2.0, -0.0))),
    _hook("on_deliver", labels, label_times, nodes,
          st.integers(0, 2**63 - 1),
          st.sampled_from(("queued", "stale-epoch", "duplicate"))),
    _hook("on_visible", labels, label_times, nodes,
          st.sampled_from(("saturn", "ts-drain", "eventual"))),
    _hook("on_finalized", labels, label_times, nodes),
    st.tuples(st.just("tracer"), st.just("annotate"),
              st.tuples(times,
                        st.sampled_from(("epoch-change", "sink-park",
                                         "failover")), nodes),
              st.dictionaries(st.sampled_from(("epoch", "count", "state",
                                               "emergency")), atoms,
                              max_size=3)),
    _hook("gauge", times, components, metric_names,
          st.one_of(st.integers(0, 40), same_value)),
    _hook("count", times, components, metric_names),
    st.tuples(st.just("read"), st.sampled_from(
        ("chains", "counters", "export", "num_chains", "events")),
        st.just(()), st.just({})),
)


# ---------------------------------------------------------------------------
# what a reader can see
# ---------------------------------------------------------------------------

def _chains(tracer):
    return [(key, [event.to_obj() for event in events])
            for key, events in tracer.chains()]


def _assert_same_records(new, old):
    """Every record reads back as the tuple the old log held: equal, and
    of the same type field by field (``1``/``1.0``/``True`` and
    ``0.0``/``-0.0`` are told apart by type and repr)."""
    records = list(new.records())
    assert records == old.log
    assert ([[type(field) for field in record] for record in records]
            == [[type(field) for field in record] for record in old.log])
    assert repr(records) == repr(old.log)


def _assert_same_view(new, old, what):
    if what in ("chains", "all"):
        assert _chains(new) == _chains(old)
        assert ([a.to_obj() for a in new.annotations]
                == [a.to_obj() for a in old.annotations])
    if what in ("num_chains", "all"):
        assert new.num_chains() == old.num_chains()
    if what in ("events", "all"):
        for key, events in old.chains():
            assert ([e.to_obj() for e in new.events(key)]
                    == [e.to_obj() for e in events])
        assert new.events((-1.0, "nobody")) == []
    if what in ("counters", "all"):
        assert new.metrics() == old.metrics()
    if what in ("export", "all"):
        meta = {"source": "equivalence"}
        assert export_jsonl(new, meta) == export_jsonl(old, meta)
        assert export_chrome(new) == export_chrome(old)
    if what == "all":
        _assert_same_records(new, old)


@settings(max_examples=150, deadline=None)
@given(st.lists(steps, max_size=60))
def test_log_backed_recorder_equals_the_old_one(sequence):
    new, old = LabelTracer(), ReferenceTracer()
    for target, name, args, kwargs in sequence:
        if target == "read":
            _assert_same_view(new, old, name)
            continue
        for tracer in (new, old):
            getattr(tracer, name)(*args, **kwargs)
    _assert_same_view(new, old, "all")


def test_reads_interleaved_across_chunk_boundaries_equal_the_old_one():
    """The log fills fixed-size chunks; reads that stop mid-chunk, on a
    boundary and one record past it see what the old recorder saw."""
    new, old = LabelTracer(), ReferenceTracer()
    labels = [Label(LabelType.UPDATE, src=f"I/gear{i}", ts=float(i % 13),
                    target="g0:a", origin_dc="I") for i in range(40)]
    reads = {CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 500}
    for number in range(3 * CHUNK + 5):
        label = labels[number % len(labels)]
        for tracer in (new, old):
            if number % 300 == 299:
                tracer.gauge(number, "sink:I", "credits", number % 5)
            elif number % 2:
                tracer.on_serializer_forward(label, number * 0.5, "ser:e0:sI",
                                             "dc:F", 0.25)
            else:
                tracer.on_visible(label, number * 0.5, "F", "saturn")
        if number + 1 in reads:
            _assert_same_view(new, old, "chains")
    assert len(new._chunks) == 4
    _assert_same_view(new, old, "all")


def test_equal_atoms_of_different_types_read_back_as_themselves():
    """``1``, ``1.0`` and ``True`` (and ``0``, ``-0.0``, ``False``) are one
    dict key each; an annotation's values must not come back as each
    other, also between the packed records of label events."""
    new, old = LabelTracer(), ReferenceTracer()
    label = Label(LabelType.UPDATE, src="I/gear0", ts=1.0, target=None,
                  origin_dc="I")
    for tracer in (new, old):
        for value in (1, 1.0, True, 0, -0.0, False, "dc:I", 1):
            tracer.on_serializer_arrive(label, 2.0, "ser:e0:sI", "dc:I")
            tracer.annotate(4.0, "epoch-change", "manager", epoch=value,
                            emergency=value)
        tracer.on_deliver(label, 3.0, "F", 1, "queued")
        tracer.annotate(4.0, "epoch-change", "manager", epoch=1,
                        emergency=True)
    _assert_same_view(new, old, "all")


def test_tracer_without_registry_equals_the_old_one():
    """A tracer built with no arguments exports the old recorder's bytes,
    metrics line included."""
    new, old = LabelTracer(), ReferenceTracer()
    label = Label(LabelType.MIGRATION, src="I/gear0", ts=1.0, target="F",
                  origin_dc="I")
    for tracer in (new, old):
        tracer.on_issue(label, 1.0, "I")
        tracer.on_flush(label, 2.0, "I", replayed=True)
        tracer.annotate(3.0, "sink-replay", "I", count=1)
    assert _chains(new) == _chains(old)
    assert export_jsonl(new) == export_jsonl(old)


# ---------------------------------------------------------------------------
# whole runs: the fold against the direct write path
# ---------------------------------------------------------------------------

def _chaos_run(name):
    from repro.analysis.mc.scenario import build_scenario
    from repro.obs import attach_tracer

    scenario = build_scenario(name)
    hub = attach_tracer(scenario)
    reference = tee(hub.tracer)
    scenario.run()
    hub.sample_kernel()
    return hub.tracer, reference


def _overload_run():
    """Admission counts and queue gauges that span several 50 ms windows."""
    from repro.datacenter.overload import OverloadConfig
    from repro.harness.runner import Cluster, ClusterConfig
    from repro.workloads.arrivals import PoissonArrivals
    from repro.workloads.synthetic import SyntheticWorkload

    cluster = Cluster(ClusterConfig(
        system="saturn", sites=("I", "F", "T"), clients_per_dc=1, seed=3,
        arrivals=PoissonArrivals(rate_ops_s=8000.0),
        overload=OverloadConfig(5, 3, 2.0), obs=True),
        SyntheticWorkload(correlation="full", read_ratio=0.5))
    reference = tee(cluster.obs_hub.tracer)
    cluster.run(duration=200.0, warmup=50.0)
    return cluster.obs_hub.tracer, reference


@pytest.fixture(scope="module")
def teed_run():
    """name -> (tracer, the reference teed from it) of a whole run, each
    run once per module."""
    runs = {}

    def run(name):
        if name not in runs:
            runs[name] = (_overload_run() if name == "overload"
                          else _chaos_run(name))
        return runs[name]

    return run


@pytest.mark.parametrize("name", ["serializer-crash",
                                  "crash-during-epoch-change"])
def test_chaos_scenario_metrics_fold_equals_the_direct_writes(name, teed_run):
    tracer, reference = teed_run(name)
    metrics = tracer.metrics()
    assert metrics["gauges"]["kernel/events_executed"]["updates"] == 1
    assert any(key.startswith("events/") for key in metrics["counters"])
    assert metrics == reference.metrics()
    assert export_jsonl(tracer) == export_jsonl(reference)


def test_open_loop_overload_metrics_fold_equals_the_direct_writes(teed_run):
    tracer, reference = teed_run("overload")
    metrics = tracer.metrics()
    assert len(metrics["counters"]["admission:I/admitted"]["series"]) >= 2
    assert len(metrics["counters"]["admission:I/rejected"]["series"]) >= 2
    queue_windows = {int(record[0] // 50.0) for record in tracer.records()
                     if record[1] == GAUGE
                     and record[2].startswith(("sink:", "serializer:"))}
    assert len(queue_windows) >= 2
    assert metrics == reference.metrics()
    assert export_jsonl(tracer) == export_jsonl(reference)


@pytest.mark.parametrize("name", ["serializer-crash", "overload"])
def test_whole_runs_read_back_the_tuples_they_were_written_from(name,
                                                                teed_run):
    """Packed label events and typed tuples, interleaved in one log, read
    back in log order as exactly the old tuple log, type by type."""
    tracer, reference = teed_run(name)
    assert any(record[1] < ANNOTATE for record in reference.log)
    assert any(record[1] >= ANNOTATE for record in reference.log)
    _assert_same_records(tracer, reference)


# ---------------------------------------------------------------------------
# pinned bytes
# ---------------------------------------------------------------------------

def test_chain3_golden_fixture_is_the_file_the_old_recorder_wrote():
    assert (hashlib.sha256(GOLDEN.read_bytes()).hexdigest()
            == CHAIN3_GOLDEN_SHA256)


@pytest.fixture(scope="module")
def geo7_block():
    """The obs hub of the benchmark's ``geo7_writes_obs`` block
    (bench/workloads.py: seven EC2 sites, 28 clients, 50% updates fully
    replicated, seed 7, 400 simulated ms), run once per module."""
    from repro.config.latencies import EC2_REGIONS, ec2_latency
    from repro.config.placement import find_configuration
    from repro.harness.runner import Scale, run_once
    from repro.sim.rng import RngRegistry
    from repro.workloads.synthetic import SyntheticWorkload

    sites = tuple(EC2_REGIONS)
    topology = find_configuration(list(sites), {site: site for site in sites},
                                  ec2_latency, beam_width=3).topology
    workload = SyntheticWorkload(read_ratio=0.5, correlation="full")
    layout = workload.replication_map(sites, ec2_latency,
                                      RngRegistry(seed=7))
    sizing = Scale(duration=400.0, warmup=80.0, clients_per_dc=4,
                   num_partitions=2, seed=7)
    result = run_once("saturn", workload, sizing, sites=sites,
                      topology=topology, replication=layout, obs=True)
    return result.cluster.obs_hub


def test_geo7_writes_obs_block_export_is_byte_identical(geo7_block):
    """The ``geo7_writes_obs`` block must export the bytes the old
    recorder exported."""
    hub = geo7_block
    exported = hub.export_jsonl().encode("utf-8")
    assert len(exported) == GEO7_WRITES_OBS_BYTES
    assert hashlib.sha256(exported).hexdigest() == GEO7_WRITES_OBS_SHA256
    assert (sum(len(events) for _, events in hub.tracer.chains())
            == GEO7_WRITES_OBS_EVENTS)
    # the Chrome document is derived from the same chains
    assert hashlib.sha256(json.dumps(
        hub.export_chrome(), sort_keys=True).encode()).hexdigest() == \
        "4fa01d051a9043ae05e27941e792e64ff4754267279ee58b2dfc9217ead1c97a"


# ---------------------------------------------------------------------------
# the streamed export
# ---------------------------------------------------------------------------

def _chain3_golden_tracer():
    from repro.analysis.mc.scenario import build_chain3
    from repro.obs import attach_tracer

    scenario = build_chain3("golden", horizon=40.0)
    hub = attach_tracer(scenario)
    scenario.run()
    return hub.tracer


@pytest.mark.parametrize("name", ["chain3-golden", "overload"])
def test_export_is_the_join_of_its_lines(name, teed_run):
    """One buffer of the lines' bytes, decoded once, is the string the
    join of the lines built."""
    tracer = (_chain3_golden_tracer() if name == "chain3-golden"
              else teed_run(name)[0])
    meta = {"fixture": name}
    assert export_jsonl(tracer, meta) == "".join(iter_jsonl(tracer, meta))
    assert export_jsonl(tracer) == "".join(iter_jsonl(tracer))


def test_streamed_digest_is_the_digest_of_the_export(geo7_block):
    hub = geo7_block
    exported = hub.export_jsonl()
    assert hub.digest() == hashlib.sha256(exported.encode("utf-8")).hexdigest() \
        == GEO7_WRITES_OBS_SHA256
    meta = {"source": "geo7_writes_obs"}
    exported = hub.export_jsonl(meta)
    assert hub.digest(meta) == hashlib.sha256(exported.encode("utf-8")).hexdigest()


def test_digest_holds_no_copy_of_the_export(geo7_block):
    """Hashing line by line never allocates the 8 MB export (nor its
    encoded copy): the digest's peak is a few lines, the chain order and
    the metrics fold."""
    hub = geo7_block
    hub.tracer.num_chains()    # the chain index is the tracer's own state
    tracemalloc.start()
    try:
        digest = hub.digest()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert digest == GEO7_WRITES_OBS_SHA256
    assert peak < 0.05 * GEO7_WRITES_OBS_BYTES
