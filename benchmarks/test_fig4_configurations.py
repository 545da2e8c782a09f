"""Fig. 4 — Saturn configuration matters.

Visibility CDFs under the single-serializer configuration (S, serializer in
Ireland), the Algorithm-3 multi-serializer configuration (M), and the
peer-to-peer timestamp-order configuration (P), for updates Ireland ->
Frankfurt (10 ms link) and Tokyo -> Sydney (52 ms link).

Paper: S and M comparable for I->F (the S serializer sits in Ireland); S is
terrible for T->S (labels detour Tokyo -> Ireland -> Sydney ≈ 261 ms); P
tends to the longest travel time (161 ms); M deviates only ~8 ms from
optimal on average.
"""

from conftest import run_pedantic

from repro.harness.experiments import run_experiment
from repro.harness.report import format_cdf_summary
from repro.metrics.stats import mean


def test_fig4_configurations(benchmark, scale):
    result = run_pedantic(benchmark, run_experiment, "fig4", scale)
    print()
    for name, series in result["series"].items():
        for pair in result["pairs"]:
            print(format_cdf_summary(f"{name} {pair[0]}->{pair[1]}",
                                     series[pair]))
        print(f"{name} overall mean: {series['mean_overall']:.1f}ms "
              f"(optimal {result['optimal_mean_overall']:.1f}ms)")

    s_conf = result["series"]["S-conf"]
    m_conf = result["series"]["M-conf"]
    p_conf = result["series"]["P-conf"]
    pair_if, pair_ts = ("I", "F"), ("T", "S")

    # S and M comparable on Ireland->Frankfurt (serializer in Ireland)
    assert abs(mean(s_conf[pair_if]) - mean(m_conf[pair_if])) < 15.0
    # S-conf detours Tokyo->Sydney through Ireland (~261 ms)
    assert mean(s_conf[pair_ts]) > 200.0
    # M-conf keeps Tokyo->Sydney near the 52 ms optimum
    assert mean(m_conf[pair_ts]) < 90.0
    # P-conf pays the longest travel time everywhere
    assert mean(p_conf[pair_if]) > 120.0
    # M-conf is the best overall
    assert (m_conf["mean_overall"] < s_conf["mean_overall"]
            and m_conf["mean_overall"] < p_conf["mean_overall"])
