"""Fig. 1 — the motivation experiments.

Fig. 1a: the throughput / data-freshness tradeoff of GentleRain vs Cure as
the number of datacenters grows (paper: GentleRain keeps throughput close
to eventual but staleness blows up; Cure keeps staleness low and constant
but loses up to ~20% throughput).

Fig. 1b: staleness overhead under partial geo-replication as the
replication degree shrinks 5 -> 2 (paper: up to ~800% for GentleRain —
it cannot take advantage of partial replication).
"""

from conftest import run_pedantic

from repro.harness.experiments import run_experiment
from repro.harness.report import format_table


def test_fig1a_tradeoff(benchmark, scale):
    result = run_pedantic(benchmark, run_experiment, "fig1a", scale)
    rows = [[r["datacenters"],
             r["gentlerain_throughput_penalty_pct"],
             r["cure_throughput_penalty_pct"],
             r["gentlerain_staleness_overhead_pct"],
             r["cure_staleness_overhead_pct"]]
            for r in result["rows"]]
    print()
    print(format_table(
        ["#DCs", "GR thr pen %", "Cure thr pen %",
         "GR staleness %", "Cure staleness %"], rows,
        title="Fig. 1a — throughput penalty and staleness vs #datacenters "
              "(paper: GR pen ~-4%, Cure pen to ~-20%; GR staleness >> Cure)"))
    last = result["rows"][-1]
    # shape assertions: Cure hurts throughput more, GentleRain staleness more
    assert (last["cure_throughput_penalty_pct"]
            < last["gentlerain_throughput_penalty_pct"])
    assert (last["gentlerain_staleness_overhead_pct"]
            > last["cure_staleness_overhead_pct"])


def test_fig1b_partial_replication(benchmark, scale):
    result = run_pedantic(benchmark, run_experiment, "fig1b", scale)
    rows = [[r["replication_degree"],
             r["optimal_visibility_ms"],
             r["gentlerain_visibility_ms"],
             r["gentlerain_staleness_overhead_pct"]]
            for r in result["rows"]]
    print()
    print(format_table(
        ["degree", "optimal ms", "GentleRain ms", "overhead %"], rows,
        title="Fig. 1b — staleness overhead vs replication degree "
              "(paper: grows to ~700-800% at degree 2)"))
    overheads = [r["gentlerain_staleness_overhead_pct"]
                 for r in result["rows"]]
    # overhead grows monotonically as replication becomes more partial
    assert overheads[-1] > overheads[0] * 1.5
