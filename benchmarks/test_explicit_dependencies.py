"""§7.3.1 / Table 2 — why explicit dependency checking (COPS/Eiger) is
ruled out under partial geo-replication.

The paper: "their practicability depends on the capability of pruning
client's list of dependencies after update operations due to the
transitivity rule of causality.  Under partial geo-replication, this is
not possible, causing client's list of dependencies to potentially grow up
to the entire database."

Measured here: with the prune, dependency lists stay tiny (but the prune
is unsafe under partial replication — see
tests/baselines/test_explicit.py); without it, lists grow with the length
of the client session and throughput collapses under the metadata cost.
"""

from conftest import run_pedantic

from repro.harness.experiments import run_experiment
from repro.harness.report import format_table


def test_dependency_list_growth(benchmark, scale):
    rows = run_pedantic(benchmark, run_experiment, "explicit-deps",
                        scale)["rows"]
    print()
    print(format_table(
        ["system", "deps/update", "throughput", "visibility ms"],
        [[r["system"], r["mean_deps_per_update"], r["throughput"],
          r["mean_visibility_ms"]] for r in rows],
        title="Explicit dependency checking under partial replication "
              "(paper: lists grow 'up to the entire database')"))
    pruned, unpruned = rows
    assert pruned["mean_deps_per_update"] < 10
    assert unpruned["mean_deps_per_update"] > 5 * pruned["mean_deps_per_update"]
    assert unpruned["throughput"] < pruned["throughput"]
