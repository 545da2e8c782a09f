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
