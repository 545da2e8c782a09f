"""Fig. 6 — impact of latency variability on Saturn.

Three datacenters (NC, O, I); extra latency is injected on the NC-O link
(base 10 ms).  Two single-serializer configurations: T1 (Oregon — optimal
under normal conditions) and T2 (Ireland).

Paper: T1 beats T2 under normal conditions; T1 degrades only slightly with
injected delay (+25 ms injected => only ~14 ms extra visibility); T2
becomes the better configuration only past ~55 ms of injected delay —
far outside realistic EC2 variability.
"""

from conftest import run_pedantic

from repro.harness.experiments import run_experiment
from repro.harness.report import format_table


def test_fig6_latency_variability(benchmark, scale):
    result = run_pedantic(benchmark, run_experiment, "fig6", scale)
    rows = [[r["injected_delay_ms"], r["T1_extra_visibility_ms"],
             r["T2_extra_visibility_ms"]] for r in result["rows"]]
    print()
    print(format_table(
        ["injected ms", "T1 extra ms", "T2 extra ms"], rows,
        title="Fig. 6 — extra visibility vs injected NC-O delay "
              "(paper: crossover ~55 ms)"))

    by_delay = {r["injected_delay_ms"]: r for r in result["rows"]}
    # under normal conditions the Oregon serializer (T1) wins clearly
    assert (by_delay[0]["T1_extra_visibility_ms"]
            < by_delay[0]["T2_extra_visibility_ms"])
    # at the largest injected delay the Ireland serializer (T2) wins
    last = result["rows"][-1]
    assert last["T2_extra_visibility_ms"] < last["T1_extra_visibility_ms"]
    # T1 degrades gracefully: even +25..50 ms injected stays moderate
    for injected, row in by_delay.items():
        if 0 < injected <= 50:
            assert row["T1_extra_visibility_ms"] <= injected
