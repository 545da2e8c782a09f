"""Statistics helpers and metric recorders."""

import pytest
from hypothesis import given, strategies as st

from repro.metrics.stats import mean, percentile
from repro.metrics.throughput import OpRecorder
from repro.metrics.visibility import VisibilityRecorder


# -- stats ---------------------------------------------------------------------

def test_mean():
    assert mean([]) == 0.0
    assert mean([1.0, 2.0, 3.0]) == 2.0


def test_percentile_basics():
    samples = list(range(1, 101))
    assert percentile(samples, 0) == 1
    assert percentile(samples, 100) == 100
    assert percentile(samples, 50) == pytest.approx(50.5)


def test_percentile_single_sample():
    assert percentile([7.0], 90) == 7.0


def test_percentile_errors():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=100),
       st.floats(min_value=0, max_value=100))
def test_percentile_within_range(samples, p):
    value = percentile(samples, p)
    assert min(samples) <= value <= max(samples)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=2, max_size=50))
def test_percentile_monotone_in_p(samples):
    assert percentile(samples, 30) <= percentile(samples, 70)


# -- visibility recorder ---------------------------------------------------------

def test_visibility_recorder_filters_and_queries():
    recorder = VisibilityRecorder()
    recorder.record_visibility("I", "F", 10.0)
    recorder.record_visibility("I", "F", 20.0)
    recorder.record_visibility("I", "T", 100.0)
    assert recorder.count() == 3
    assert recorder.mean("I", "F") == 15.0
    assert recorder.samples(dest="T") == [100.0]
    assert recorder.pairs() == [("I", "F"), ("I", "T")]
    assert recorder.percentile(100, "I", "F") == 20.0


def test_visibility_recorder_warmup():
    class FakeSim:
        now = 0.0

    sim = FakeSim()
    recorder = VisibilityRecorder(warmup_until=100.0)
    recorder.bind_clock(sim)
    recorder.record_visibility("I", "F", 5.0)
    sim.now = 200.0
    recorder.record_visibility("I", "F", 7.0)
    assert recorder.samples() == [7.0]


# -- op recorder ------------------------------------------------------------------

def test_op_recorder_throughput_window():
    recorder = OpRecorder()
    for at in (50.0, 150.0, 250.0, 1250.0):
        recorder.record_op("read", 1.0, at)
    assert recorder.ops_in_window(100.0, 1000.0) == 2
    assert recorder.ops_in_window(0.0, 1000.0) == 3


def test_op_recorder_latency_queries():
    recorder = OpRecorder()
    recorder.record_op("read", 1.0, 10.0)
    recorder.record_op("update", 3.0, 20.0)
    recorder.record_op("read", 2.0, 30.0)
    assert recorder.total_ops() == 3
    assert recorder.counts() == {"read": 2, "update": 1}
    assert recorder.mean_latency("read") == 1.5
    assert recorder.mean_latency() == 2.0
    assert recorder.latencies("read", start=25.0) == [2.0]
    assert recorder.latency_percentile(100) == 3.0


# -- counts folded from the recorded lists ------------------------------------

@pytest.mark.parametrize("system, kinds, visible", [
    ("saturn", [("read", 1654), ("update", 696)],
     [("T", 248), ("I", 395), ("F", 444)]),
    ("cure", [("read", 1566), ("update", 675)],
     [("T", 241), ("I", 374), ("F", 422)]),
])
def test_counts_keep_their_values_and_first_seen_key_order(system, kinds,
                                                           visible):
    """``OpRecorder.counts()`` is keyed by each kind's first completion and
    ``ExecutionLog.visible_counts()`` by each datacenter's first
    visibility; the pinned items are what the separately kept counters
    reported on the same runs."""
    from repro.harness.runner import Cluster, ClusterConfig
    from repro.verify import ExecutionLog
    from repro.workloads.synthetic import SyntheticWorkload

    workload = SyntheticWorkload(read_ratio=0.7, correlation="exponential",
                                 keys_per_group=4, groups_per_dc=2)
    cluster = Cluster(ClusterConfig(system=system, sites=("I", "F", "T"),
                                    clients_per_dc=2, seed=5), workload)
    log = ExecutionLog(cluster.replication)
    cluster.attach_execution_log(log)
    results = cluster.run(duration=300.0, warmup=50.0)
    assert list(results.ops.counts().items()) == kinds
    assert list(log.visible_counts().items()) == visible
    assert results.throughput == \
        results.ops.ops_in_window(50.0, 300.0) / ((300.0 - 50.0) / 1000.0)


# -- columnar recorders against a list-of-tuples reference ----------------------

class _ReferenceOps:
    """What OpRecorder answers, kept as one tuple per completion."""

    def __init__(self):
        self.rows = []

    def record_op(self, kind, latency, at):
        self.rows.append((at, kind, latency))

    def counts(self):
        counts = {}
        for _, kind, _ in self.rows:
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def latencies(self, kind=None, start=0.0):
        return [lat for at, k, lat in self.rows
                if at >= start and (kind is None or k == kind)]


class _ReferenceVisibility:
    """What VisibilityRecorder answers, kept as per-pair lists and
    (recorded-at, origin, dest, latency) timeline tuples."""

    def __init__(self, warmup_until, clock):
        self.warmup_until, self.clock = warmup_until, clock
        self.by_pair, self.timeline = {}, []

    def record_visibility(self, origin, dest, latency):
        if self.clock is not None and self.clock.now < self.warmup_until:
            return
        self.by_pair.setdefault((origin, dest), []).append(latency)
        if self.clock is not None:
            self.timeline.append((self.clock.now, origin, dest, latency))

    def samples(self, origin=None, dest=None):
        return [latency for (o, d), values in self.by_pair.items()
                if (origin is None or o == origin)
                and (dest is None or d == dest) for latency in values]

    def samples_in_window(self, t0, t1, origin=None, dest=None):
        return [latency for at, o, d, latency in self.timeline
                if t0 <= at < t1 and (origin is None or o == origin)
                and (dest is None or d == dest)]


class _Clock:
    now = 0.0


_SITES = st.sampled_from(["I", "F", "T", "S"])
_TIMES = st.floats(min_value=-10.0, max_value=1e4, allow_nan=False)
_RECORDER_STEPS = st.lists(st.one_of(
    st.tuples(st.just("op"), st.sampled_from(["read", "update", "migrate"]),
              _TIMES, _TIMES),
    st.tuples(st.just("visible"), _SITES, _SITES, _TIMES),
    st.tuples(st.just("tick"), _TIMES)), max_size=60)


@given(steps=_RECORDER_STEPS, bound=st.booleans(), warmup=_TIMES,
       window=st.tuples(_TIMES, _TIMES),
       origin=st.sampled_from([None, "I", "F", "X"]),
       dest=st.sampled_from([None, "T", "S", "X"]),
       kind=st.sampled_from([None, "read", "update", "migrate", "other"]))
def test_columnar_recorders_answer_like_lists_of_tuples(
        steps, bound, warmup, window, origin, dest, kind):
    clock = _Clock() if bound else None
    ops, reference_ops = OpRecorder(), _ReferenceOps()
    visibility = VisibilityRecorder(warmup_until=warmup)
    if clock is not None:
        visibility.bind_clock(clock)
    reference = _ReferenceVisibility(warmup, clock)
    for step in steps:
        if step[0] == "op":
            for recorder in (ops, reference_ops):
                recorder.record_op(step[1], step[3], step[2])
        elif step[0] == "visible":
            for recorder in (visibility, reference):
                recorder.record_visibility(*step[1:])
        elif clock is not None:
            clock.now = step[1]

    t0, t1 = window
    assert ops.total_ops() == len(reference_ops.rows)
    assert list(ops.counts().items()) == list(reference_ops.counts().items())
    assert ops.ops_in_window(t0, t1) == sum(
        1 for at, _, _ in reference_ops.rows if t0 <= at < t1)
    for start in (0.0, t0):
        expected = reference_ops.latencies(kind, start)
        assert ops.latencies(kind, start) == expected
        assert ops.mean_latency(kind, start) == mean(expected)
        if expected:
            assert ops.latency_percentile(90, kind, start) == \
                percentile(expected, 90)

    expected = reference.samples(origin, dest)
    assert visibility.samples(origin, dest) == expected
    assert visibility.samples() == reference.samples()
    assert visibility.count() == len(reference.samples())
    assert visibility.pairs() == sorted(reference.by_pair)
    assert visibility.mean(origin, dest) == mean(expected)
    if expected:
        assert visibility.percentile(50, origin, dest) == \
            percentile(expected, 50)
    windowed = reference.samples_in_window(t0, t1, origin, dest)
    assert visibility.samples_in_window(t0, t1, origin, dest) == windowed
    assert visibility.samples_in_window(t0, t1) == \
        reference.samples_in_window(t0, t1)
    assert visibility.mean_in_window(t0, t1, origin, dest) == mean(windowed)


def test_recorders_retain_at_most_40_bytes_per_sample():
    """A sample is a slot in fixed-width columns, not a Python object: the
    recorders keep none of the floats they are handed (each is made fresh
    here, as the simulator's clock arithmetic makes them)."""
    import tracemalloc

    n = 10_000
    sites = ("I", "F", "T", "S", "O", "V", "C")
    pairs = [(o, d) for o in sites for d in sites if o != d]
    samples = [(i, "read" if i % 3 else "update", pairs[i % len(pairs)])
               for i in range(n)]
    clock = _Clock()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ops = OpRecorder()
        for i, kind, _ in samples:
            ops.record_op(kind, i * 0.5, i * 1.0)
        after_ops = tracemalloc.get_traced_memory()[0]
        visibility = VisibilityRecorder()
        visibility.bind_clock(clock)
        for i, _, (origin, dest) in samples:
            clock.now = i * 1.0
            visibility.record_visibility(origin, dest, i * 0.5)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert ops.total_ops() == visibility.count() == n
    assert (after_ops - before) / n <= 40, \
        f"{(after_ops - before) / n:.1f} bytes retained per op"
    assert (after - after_ops) / n <= 40, \
        f"{(after - after_ops) / n:.1f} bytes retained per visibility sample"
