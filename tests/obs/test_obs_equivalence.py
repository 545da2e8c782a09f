"""The log-backed tracer against the recorder it replaced.

``ReferenceTracer`` / ``ReferenceTap`` below are the old implementation,
kept verbatim as an executable specification: every hook looked its chain
up, allocated a ``TraceEvent`` plus an ``extra`` dict, and incremented a
windowed registry counter on the spot.  Hypothesis drives both recorders
with the same random hook sequences — all eight hooks, the network tap, and
reads interleaved at random points — and everything a reader can see must
be equal: chains, annotations, every counter's value and series, the
``saturn-obs/v1`` bytes and the Chrome document.

The two pinned digests were captured from the old recorder before it was
replaced (commit 9ad2de5): the full ``geo7_writes_obs`` benchmark block and
the chain3 golden fixture.
"""

import hashlib
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.label import Label, LabelType
from repro.datacenter.messages import LabelBatch, Ping
from repro.obs import LabelTracer, MetricsRegistry, NetworkTap
from repro.obs.export import export_chrome, export_jsonl
from repro.obs.trace import TraceEvent

GOLDEN = Path(__file__).parent / "golden" / "chain3_horizon40.jsonl"
CHAIN3_GOLDEN_SHA256 = \
    "d456521e7806d0df0c63c1ece42af2aaa4f8f122e954dc8b8e2b7ba1eebaf49f"
GEO7_WRITES_OBS_SHA256 = \
    "eb4aac1737fb01916482450d94f5b5cc7b7553ffbdc77f88d8081e8569cc0267"
GEO7_WRITES_OBS_BYTES = 8_177_402
GEO7_WRITES_OBS_EVENTS = 95_284


# ---------------------------------------------------------------------------
# the old recorder
# ---------------------------------------------------------------------------

class ReferenceTracer:
    def __init__(self, registry=None):
        self._chains = {}
        self.annotations = []
        self.registry = registry

    def _events(self, label):
        return self._chains.setdefault((label.ts, label.src), [])

    def _inc(self, component, name, t):
        if self.registry is not None:
            self.registry.counter(component, name).inc(at=t)

    def on_issue(self, label, t, dc):
        self._events(label).append(TraceEvent(t, "issue", dc, {
            "type": label.type.value, "target": label.target,
            "origin": label.origin_dc}))
        self._inc(f"sink/{dc}", "labels_issued", t)

    def on_flush(self, label, t, dc, replayed=False):
        extra = {"replayed": True} if replayed else None
        self._events(label).append(TraceEvent(t, "flush", dc, extra))
        self._inc(f"sink/{dc}",
                  "labels_replayed" if replayed else "labels_flushed", t)

    def on_serializer_arrive(self, label, t, node, sender):
        self._events(label).append(
            TraceEvent(t, "ser-arrive", node, {"from": sender}))
        self._inc(f"serializer/{node}", "labels_in", t)

    def on_serializer_forward(self, label, t, node, to, dwell):
        self._events(label).append(
            TraceEvent(t, "ser-forward", node, {"to": to, "dwell": dwell}))
        self._inc(f"serializer/{node}", "labels_out", t)

    def on_deliver(self, label, t, dc, epoch, disposition):
        self._events(label).append(TraceEvent(t, "deliver", dc, {
            "epoch": epoch, "disposition": disposition}))
        self._inc(f"proxy/{dc}", f"delivered_{disposition}", t)

    def on_visible(self, label, t, dc, mode):
        self._events(label).append(
            TraceEvent(t, "visible", dc, {"mode": mode}))
        self._inc(f"proxy/{dc}", f"visible_{mode}", t)

    def on_finalized(self, label, t, dc):
        self._events(label).append(TraceEvent(t, "finalized", dc))

    def annotate(self, t, kind, node, **extra):
        self.annotations.append(
            TraceEvent(t, kind, node, extra if extra else None))
        self._inc(f"events/{node}", kind.replace("-", "_"), t)

    def chains(self):
        for key in sorted(self._chains):
            yield key, self._chains[key]

    def events(self, key):
        return self._chains.get(key, [])

    def num_chains(self):
        return len(self._chains)


class ReferenceTap:
    def __init__(self, registry):
        self.registry = registry

    def on_send(self, src, dst, message, arrival):
        registry = self.registry
        registry.counter("network", "messages").inc(at=arrival)
        if isinstance(message, LabelBatch):
            registry.counter("network", "label_batches").inc(at=arrival)
            registry.counter("network", "labels").inc(len(message.labels),
                                                      at=arrival)
            registry.histogram("network", "batch_size").observe(
                len(message.labels), at=arrival)


class _Recorder:
    """A tracer, its registry and its tap, old or new."""

    def __init__(self, tracer_cls, tap_cls, window=50.0):
        self.registry = MetricsRegistry(window=window)
        self.tracer = tracer_cls(registry=self.registry)
        self.tap = (tap_cls(self.registry) if tap_cls is ReferenceTap
                    else tap_cls(self.tracer))


# ---------------------------------------------------------------------------
# strategies: one step = (target, method name, args, kwargs)
# ---------------------------------------------------------------------------

NODES = ("I", "F", "T", "ser:e0:sI", "ser:e1:sF", "dc:I", "manager")
times = st.one_of(st.sampled_from((0.0, 49.999, 50.0, 50.0, 1e6)),
                  st.floats(min_value=0.0, max_value=500.0))
nodes = st.sampled_from(NODES)
labels = st.builds(
    Label, st.sampled_from(LabelType),
    src=st.sampled_from(("I/gear0", "I/gear1", "F/gear0", "T/sink")),
    ts=st.sampled_from((0.5, 1.0, 1.25, 2.0, 3.0)),
    target=st.sampled_from((None, "g0:a", "T")),
    origin_dc=st.sampled_from(("", "I", "F")))
atoms = st.one_of(st.integers(-3, 3), st.booleans(),
                  st.sampled_from(("x", "", "emergency")),
                  st.floats(allow_nan=False, allow_infinity=False, width=16))
batches = st.one_of(
    st.builds(lambda n: LabelBatch(tuple(
        Label(LabelType.UPDATE, src="I/gear0", ts=float(i), origin_dc="I")
        for i in range(n))), st.integers(0, 5)),
    st.just(Ping(seq=1, origin="I")))


def _hook(name, *args, **kwargs):
    return st.tuples(st.just("tracer"), st.just(name), st.tuples(*args),
                     st.fixed_dictionaries(kwargs))


steps = st.one_of(
    _hook("on_issue", labels, times, nodes),
    _hook("on_flush", labels, times, nodes),
    _hook("on_flush", labels, times, nodes, replayed=st.booleans()),
    _hook("on_serializer_arrive", labels, times, nodes, nodes),
    _hook("on_serializer_forward", labels, times, nodes, nodes,
          st.sampled_from((0.0, 0.25, 2.0))),
    _hook("on_deliver", labels, times, nodes, st.integers(0, 2),
          st.sampled_from(("queued", "stale-epoch", "duplicate"))),
    _hook("on_visible", labels, times, nodes,
          st.sampled_from(("saturn", "ts-drain", "eventual"))),
    _hook("on_finalized", labels, times, nodes),
    st.tuples(st.just("tracer"), st.just("annotate"),
              st.tuples(times,
                        st.sampled_from(("epoch-change", "sink-park",
                                         "failover")), nodes),
              st.dictionaries(st.sampled_from(("epoch", "count", "state",
                                               "emergency")), atoms,
                              max_size=3)),
    st.tuples(st.just("tap"), st.just("on_send"),
              st.tuples(nodes, nodes, batches, times), st.just({})),
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


def _assert_same_view(new, old, what):
    if what in ("chains", "all"):
        assert _chains(new.tracer) == _chains(old.tracer)
        assert ([a.to_obj() for a in new.tracer.annotations]
                == [a.to_obj() for a in old.tracer.annotations])
    if what in ("num_chains", "all"):
        assert new.tracer.num_chains() == old.tracer.num_chains()
    if what in ("events", "all"):
        for key, events in old.tracer.chains():
            assert ([e.to_obj() for e in new.tracer.events(key)]
                    == [e.to_obj() for e in events])
        assert new.tracer.events((-1.0, "nobody")) == []
    if what in ("counters", "all"):
        for (component, name), counter in old.registry._counters.items():
            mine = new.registry.counter(component, name)
            assert (mine.value, mine.series()) == (counter.value,
                                                   counter.series())
        assert set(new.registry._counters) == set(old.registry._counters)
        assert new.registry.to_dict() == old.registry.to_dict()
    if what in ("export", "all"):
        meta = {"source": "equivalence"}
        assert (export_jsonl(new.tracer, new.registry, meta)
                == export_jsonl(old.tracer, old.registry, meta))
        assert export_chrome(new.tracer) == export_chrome(old.tracer)


@settings(max_examples=150, deadline=None)
@given(st.lists(steps, max_size=60), st.sampled_from((0.0, 50.0)))
def test_log_backed_recorder_equals_the_old_one(sequence, window):
    new = _Recorder(LabelTracer, NetworkTap, window)
    old = _Recorder(ReferenceTracer, ReferenceTap, window)
    for target, name, args, kwargs in sequence:
        if target == "read":
            _assert_same_view(new, old, name)
            continue
        for recorder in (new, old):
            getattr(getattr(recorder, target), name)(*args, **kwargs)
    _assert_same_view(new, old, "all")


def test_tracer_without_registry_equals_the_old_one():
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
# pinned bytes
# ---------------------------------------------------------------------------

def test_chain3_golden_fixture_is_the_file_the_old_recorder_wrote():
    assert (hashlib.sha256(GOLDEN.read_bytes()).hexdigest()
            == CHAIN3_GOLDEN_SHA256)


def test_geo7_writes_obs_block_export_is_byte_identical():
    """The benchmark's ``geo7_writes_obs`` block (bench/workloads.py:
    seven EC2 sites, 28 clients, 50% updates fully replicated, seed 7,
    400 simulated ms) must export the bytes the old recorder exported."""
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
    hub = result.cluster.obs_hub
    exported = hub.export_jsonl().encode("utf-8")
    assert len(exported) == GEO7_WRITES_OBS_BYTES
    assert hashlib.sha256(exported).hexdigest() == GEO7_WRITES_OBS_SHA256
    assert (sum(len(events) for _, events in hub.tracer.chains())
            == GEO7_WRITES_OBS_EVENTS)
    # the Chrome document is derived from the same chains
    assert hashlib.sha256(json.dumps(
        hub.export_chrome(), sort_keys=True).encode()).hexdigest() == \
        "4fa01d051a9043ae05e27941e792e64ff4754267279ee58b2dfc9217ead1c97a"
