"""``repro.perf`` — microbenchmark + throughput harness with a CI gate.

:mod:`repro.perf.benches` lists the metrics.  Results are
machine-normalized against a calibration spin loop
(:mod:`repro.perf.measure`) and compared against the committed
``BENCH_perf.json`` baseline (:mod:`repro.perf.baseline`); CI fails when
any metric is >15% slower.

Run ``python -m repro.perf --help`` for the CLI.
"""

from repro.perf.baseline import (ComparisonReport, MetricComparison,
                                 build_result, compare, load_result,
                                 save_result)
from repro.perf.benches import bench_figure, bench_kernel, bench_tree
from repro.perf.measure import calibrate, wall_clock

__all__ = [
    "bench_kernel", "bench_tree", "bench_figure",
    "build_result", "compare", "load_result", "save_result",
    "ComparisonReport", "MetricComparison",
    "calibrate", "wall_clock",
]
