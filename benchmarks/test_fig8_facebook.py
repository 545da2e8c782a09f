"""Fig. 8 — the Facebook-based benchmark.

8a: throughput as the maximum number of replicas per user varies 2 -> 5
(indirectly varying remote reads).  8b: visibility CDFs for Ireland ->
Frankfurt (best case) and Ireland -> Tokyo (worst case).

Paper: Saturn ~1.8% below eventual, 10.9% above GentleRain, 41.9% above
Cure on average; visibility +16.1 ms over optimal on average (GentleRain
+79.2 ms, Cure +23.7 ms); worst case adds ~47 ms at the 90th percentile
but stays comparable to both baselines.
"""

from collections import defaultdict

from conftest import run_pedantic

from repro.harness.experiments import run_experiment
from repro.harness.report import format_cdf_summary, format_table
from repro.metrics.stats import mean


def test_fig8_facebook(benchmark, scale):
    result = run_pedantic(benchmark, run_experiment, "fig8", scale)
    table = defaultdict(dict)
    for row in result["rows"]:
        table[row["max_replicas"]][row["system"]] = row["throughput"]
    printable = [[k, v.get("eventual", 0.0), v.get("saturn", 0.0),
                  v.get("gentlerain", 0.0), v.get("cure", 0.0)]
                 for k, v in sorted(table.items())]
    print()
    print(format_table(
        ["max replicas", "eventual", "saturn", "gentlerain", "cure"],
        printable, title="Fig. 8a — Facebook benchmark throughput (ops/s)"))
    for system, series in result["series"].items():
        for pair in result["pairs"]:
            print(format_cdf_summary(f"{system} {pair[0]}->{pair[1]}",
                                     series[pair]))

    # throughput ordering holds across the replication sweep
    for per_system in table.values():
        assert per_system["saturn"] > per_system["cure"]
        assert per_system["saturn"] >= 0.85 * per_system["eventual"]
    # saturn beats gentlerain on average across the sweep
    saturn_total = sum(v["saturn"] for v in table.values())
    gentlerain_total = sum(v["gentlerain"] for v in table.values())
    assert saturn_total > gentlerain_total

    # 8b: best case near optimal; GentleRain pays the furthest DC
    pair_if = ("I", "F")
    assert (mean(result["series"]["saturn"][pair_if])
            <= mean(result["series"]["eventual"][pair_if]) + 25.0)
    assert mean(result["series"]["gentlerain"][pair_if]) >= 100.0
