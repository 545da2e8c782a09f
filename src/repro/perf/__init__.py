"""``repro.perf`` — microbenchmark + throughput harness with a CI gate.

:mod:`repro.perf.benches` lists the metrics.  Results are
machine-normalized against a calibration spin loop
(:mod:`repro.perf.measure`) and compared against the committed
``BENCH_perf.json`` baseline (:mod:`repro.perf.baseline`); CI fails when
any metric is >15% slower.

Run ``python -m repro.perf --help`` for the CLI.
"""
