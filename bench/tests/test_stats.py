"""Percentile guard, spread and the --compare verdicts."""

import pytest

from bench.stats import compare, percentile, spread


def test_percentile_needs_ten_samples_beyond():
    samples = list(range(999))
    with pytest.raises(ValueError, match="beyond"):
        percentile(samples, 99)
    assert percentile(list(range(1001)), 99) == pytest.approx(990.0)
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)
    assert percentile(list(range(21)), 50) == 10
    # the guard is symmetric: p1 is as far out as p99
    with pytest.raises(ValueError):
        percentile(samples, 1)


def test_spread_is_interquartile_over_median():
    assert spread([5.0]) == 0.0
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert spread(values) == pytest.approx((17.25 - 11.75) / 14.5)


def _results(**metrics):
    return {"workloads": {"w": {"end_to_end": metrics}}}


SPEC = [
    {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.1},
]


def test_compare_verdicts():
    steady = [100.0, 100.5, 99.5, 100.2, 99.8]
    parent = _results(latency_ms=steady, ops_per_s=steady)
    same = {row["metric"]: row["verdict"]
            for row in compare(parent, parent, SPEC)}
    assert same == {"latency_ms": "ok", "ops_per_s": "ok"}

    slower = _results(latency_ms=[v * 1.2 for v in steady],
                      ops_per_s=[v * 0.8 for v in steady])
    rows = {row["metric"]: row for row in compare(parent, slower, SPEC)}
    assert rows["latency_ms"]["verdict"] == "worse"
    assert rows["ops_per_s"]["verdict"] == "worse"
    assert rows["ops_per_s"]["worse_by"] == pytest.approx(0.2)

    # better in the metric's own direction is never "worse"
    faster = _results(latency_ms=[v * 0.5 for v in steady],
                      ops_per_s=[v * 2.0 for v in steady])
    assert {row["verdict"] for row in compare(parent, faster, SPEC)} == {"ok"}

    noisy = _results(latency_ms=[60.0, 80.0, 100.0, 120.0, 140.0],
                     ops_per_s=steady)
    rows = {row["metric"]: row for row in compare(parent, noisy, SPEC)}
    assert rows["latency_ms"]["verdict"] == "unresolved"
    assert rows["ops_per_s"]["verdict"] == "ok"
