"""§6.2 — online reconfiguration timing.

Paper: the fast-path switch completes within the largest metadata-path
latency of the old tree — always under 200 ms in their experiments.  The
failure path is bounded by timestamp-order stabilization instead.
"""

from conftest import run_pedantic

from repro.harness.experiments import run_experiment
from repro.harness.report import format_table


def test_fast_path_reconfiguration(benchmark, scale):
    result = run_pedantic(benchmark, run_experiment, "reconfiguration",
                          scale)
    rows = [[dc, max(times) if times else float("nan")]
            for dc, times in sorted(result["per_dc_ms"].items())]
    print()
    print(format_table(["datacenter", "switch time ms"], rows,
                       title="§6.2 fast-path reconfiguration "
                             "(paper: < 200 ms)"))
    assert result["completed"]
    assert result["max_ms"] is not None
    assert result["max_ms"] < 300.0
    assert result["throughput"] > 0


def test_failure_path_reconfiguration(benchmark, scale):
    result = run_pedantic(benchmark, run_experiment, "reconfiguration",
                          scale, emergency=True)
    print()
    print(f"failure-path reconfiguration: completed={result['completed']} "
          f"max={result['max_ms']}ms")
    assert result["completed"]
    assert result["throughput"] > 0
