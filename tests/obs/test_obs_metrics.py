"""Unit tests for the metrics the tracer folds from its log plus the
repro.metrics edge cases the observability layer leans on (percentile
interpolation, windowed visibility queries)."""

import pytest

from repro.metrics.stats import mean, percentile
from repro.metrics.visibility import VisibilityRecorder
from repro.obs.trace import LabelTracer


# ---------------------------------------------------------------------------
# counters / gauges
# ---------------------------------------------------------------------------

def test_counter_accumulates_and_windows():
    tracer = LabelTracer()
    for t in (1.0, 49.9, 49.9, 50.0, 125.0):
        tracer.count(t, "a", "x")
    assert tracer.metrics()["counters"]["a/x"] == {
        "value": 5.0, "series": [[0.0, 3.0], [50.0, 1.0], [100.0, 1.0]]}


def test_gauge_last_write_wins():
    tracer = LabelTracer()
    tracer.gauge(1.0, "a", "g", 5.0)
    tracer.gauge(2.0, "a", "g", 3.0)
    assert tracer.metrics()["gauges"]["a/g"] == {"value": 3.0, "at": 2.0,
                                                 "updates": 2}


def test_registry_get_or_create_and_sorted_export():
    tracer = LabelTracer()
    tracer.count(1.0, "b", "y")
    tracer.count(1.0, "a", "x")
    tracer.gauge(2.0, "a", "g", 7.0)
    exported = tracer.metrics()
    assert exported["window"] == 50.0
    assert list(exported["counters"]) == ["a/x", "b/y"]
    assert exported["gauges"]["a/g"]["value"] == 7.0
    # the saturn-obs/v1 schema keeps an empty section
    assert exported["histograms"] == {}
    assert exported["counters"]["b/y"]["series"] == [[0.0, 1.0]]


# ---------------------------------------------------------------------------
# repro.metrics.stats edges
# ---------------------------------------------------------------------------

def test_percentile_extremes_and_interpolation():
    samples = [10.0, 0.0, 20.0, 30.0, 40.0]
    assert percentile(samples, 0) == 0.0
    assert percentile(samples, 100) == 40.0
    assert percentile(samples, 50) == 20.0
    # rank 0.25 * 4 = 1 exactly; 37.5 lands between indices 1 and 2
    assert percentile(samples, 37.5) == pytest.approx(15.0)


def test_percentile_single_sample_is_constant():
    assert percentile([7.5], 0) == 7.5
    assert percentile([7.5], 63.0) == 7.5
    assert percentile([7.5], 100) == 7.5


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)
    with pytest.raises(ValueError):
        percentile([1.0], -1)


# ---------------------------------------------------------------------------
# VisibilityRecorder window queries around warmup
# ---------------------------------------------------------------------------

class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0


def test_visibility_recorder_drops_warmup_and_windows():
    clock = _FakeClock()
    recorder = VisibilityRecorder(warmup_until=100.0)
    recorder.bind_clock(clock)

    clock.now = 99.9
    recorder.record_visibility("I", "T", 5.0)   # inside warmup: dropped
    clock.now = 100.0
    recorder.record_visibility("I", "T", 6.0)   # boundary: kept
    clock.now = 150.0
    recorder.record_visibility("I", "T", 7.0)
    recorder.record_visibility("F", "T", 9.0)

    assert recorder.count() == 3
    assert recorder.samples("I", "T") == [6.0, 7.0]
    # recorded-at windows are half-open [t0, t1)
    assert recorder.samples_in_window(100.0, 150.0) == [6.0]
    assert recorder.samples_in_window(100.0, 150.1, origin="I") == [6.0, 7.0]
    assert recorder.samples_in_window(0.0, 100.0) == []
    assert recorder.mean_in_window(100.0, 151.0, dest="T") == pytest.approx(
        (6.0 + 7.0 + 9.0) / 3)


def test_visibility_recorder_unbound_clock_keeps_samples_without_timeline():
    recorder = VisibilityRecorder(warmup_until=100.0)
    recorder.record_visibility("I", "T", 5.0)   # no clock: warmup unenforced
    assert recorder.samples() == [5.0]
    # the timeline needs a clock, so windowed queries see nothing
    assert recorder.samples_in_window(0.0, 1e9) == []
    assert recorder.mean_in_window(0.0, 1e9) == 0.0
