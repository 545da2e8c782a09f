"""Fig. 5 — dynamic-workload throughput experiments.

Four sweeps (value size, read:write ratio, correlation pattern, % remote
reads) over Eventual, Saturn, GentleRain, and Cure on the seven EC2
regions.

Paper headline (§7.3.2): Saturn within ~2.2% of eventual on average,
~4.8% above GentleRain, ~24.7% above Cure; large values mask the metadata
overheads; remote reads disrupt GentleRain (+15.7% for Saturn at 40%) and
Cure (+60.5%) far more than Saturn.
"""

from collections import defaultdict

from conftest import run_pedantic

from repro.harness.experiments import FIG5_SYSTEMS, run_experiment
from repro.harness.report import format_table


def _pivot(rows):
    table = defaultdict(dict)
    for row in rows:
        table[(row["panel"], row["value"])][row["system"]] = row["throughput"]
    return table


def test_fig5_all_panels(benchmark, scale):
    result = run_pedantic(benchmark, run_experiment, "fig5", scale)
    table = _pivot(result["rows"])
    printable = []
    for (panel, value), per_system in sorted(table.items(),
                                             key=lambda kv: str(kv[0])):
        printable.append([
            panel, str(value),
            per_system.get("eventual", 0.0), per_system.get("saturn", 0.0),
            per_system.get("gentlerain", 0.0), per_system.get("cure", 0.0)])
    print()
    print(format_table(
        ["panel", "x", "eventual", "saturn", "gentlerain", "cure"],
        printable,
        title="Fig. 5 — throughput (ops/s) across workload sweeps"))

    # headline relative ordering at the default-like point (panel b, 90:10)
    base = table[("b", 0.9)]
    assert base["saturn"] > base["gentlerain"] > base["cure"]
    assert base["saturn"] >= 0.90 * base["eventual"]
    assert base["cure"] <= 0.85 * base["eventual"]

    # panel a: large values mask the differences
    small = table[("a", 8)]
    large = table[("a", 2048)]
    gap_small = (small["eventual"] - small["cure"]) / small["eventual"]
    gap_large = (large["eventual"] - large["cure"]) / large["eventual"]
    assert gap_large < gap_small

    # panel d: remote reads hurt everyone (clients block on WAN), but
    # GentleRain pays extra: its attaches wait for the furthest
    # datacenter's stabilization stream while Saturn's migration labels
    # travel origin->target directly.  (The paper's Cure collapse at 40%
    # is CPU-saturation-driven and is reproduced in the headline panel-b
    # gaps instead — see EXPERIMENTS.md.)
    for system in FIG5_SYSTEMS:
        assert table[("d", 0.4)][system] < table[("d", 0.0)][system]
    assert table[("d", 0.4)]["saturn"] > table[("d", 0.4)]["gentlerain"]
    assert table[("d", 0.1)]["saturn"] > table[("d", 0.1)]["gentlerain"]
