"""Ablations of Saturn's design choices (DESIGN.md §4).

* label-sink batching period: metadata path latency vs batching efficiency;
* artificial propagation delays (§5.4): false-dependency damage when bulk
  data takes a slower path than metadata;
* §4.3 concurrency optimization: pipelined vs strictly serial remote apply;
* genuine partial replication: metadata traffic under partial vs full
  replication.
"""

from conftest import run_pedantic

from repro.harness.experiments import run_experiment
from repro.harness.report import format_table


def test_sink_batching_period(benchmark, scale):
    result = run_pedantic(benchmark, run_experiment,
                          "ablation-sink-batching", scale)
    rows = [[r["sink_batch_period_ms"], r["throughput"],
             r["mean_visibility_ms"]] for r in result["rows"]]
    print()
    print(format_table(["batch ms", "throughput", "visibility ms"], rows,
                       title="Ablation — label-sink batching period"))
    first, last = result["rows"][0], result["rows"][-1]
    # batching longer delays label delivery, hence visibility
    assert last["mean_visibility_ms"] > first["mean_visibility_ms"]


def test_artificial_delays(benchmark, scale):
    result = run_pedantic(benchmark, run_experiment,
                          "ablation-artificial-delays", scale)
    rows = [[r["config"], r["visibility_B_to_C_ms"],
             r["visibility_A_to_C_ms"]] for r in result["rows"]]
    print()
    print(format_table(["config", "B->C ms", "A->C ms"], rows,
                       title="Ablation — artificial delays (§5.4): slow "
                             "bulk A->C creates false deps for B->C"))
    no_delay, with_delay = result["rows"]
    # premature A labels head-of-line block B's updates at C...
    assert no_delay["visibility_B_to_C_ms"] > 40.0
    # ...which the solver's artificial delay eliminates
    assert with_delay["visibility_B_to_C_ms"] < 25.0
    assert with_delay["delays"], "solver must have added delays"
    # data freshness of A->C is untouched (payload-bound either way)
    assert abs(with_delay["visibility_A_to_C_ms"]
               - no_delay["visibility_A_to_C_ms"]) < 15.0


def test_parallel_apply(benchmark, scale):
    result = run_pedantic(benchmark, run_experiment,
                          "ablation-parallel-apply", scale)
    rows = [[str(r["parallel_apply"]), r["throughput"],
             r["mean_visibility_ms"]] for r in result["rows"]]
    print()
    print(format_table(["parallel", "throughput", "visibility ms"], rows,
                       title="Ablation — §4.3 pipelined remote application"))
    parallel, serial = result["rows"]
    # strictly serial application inflates visibility under load
    assert serial["mean_visibility_ms"] >= parallel["mean_visibility_ms"]


def test_genuine_partial_replication(benchmark, scale):
    result = run_pedantic(benchmark, run_experiment,
                          "ablation-genuine-partial", scale)
    print()
    for row in result["rows"]:
        print(f"{row['replication']}: total labels processed = "
              f"{row['total_labels']}")
    full, partial = result["rows"]
    # partial replication slashes the metadata each datacenter processes
    assert partial["total_labels"] < 0.7 * full["total_labels"]
