"""The run layer and the experiment driver: structure and basic sanity.

These are what the benchmarks call; here we verify shapes and invariants
cheaply (tiny Scale) so a broken experiment fails fast in the unit suite
rather than mid-benchmark.
"""

import os
import subprocess
import sys

import pytest

from repro.harness.experiments import EXPERIMENTS, Experiment, run_experiment
from repro.harness.runner import Scale, m_configuration, run_once
from repro.workloads.synthetic import SyntheticWorkload

TINY = Scale(duration=300.0, warmup=80.0, clients_per_dc=3,
             facebook_clients_per_dc=6, beam_width=2)


def test_m_configuration_cached():
    first = m_configuration(("I", "F", "T"), beam_width=2)
    second = m_configuration(("I", "F", "T"), beam_width=2)
    assert first is second


def test_m_configuration_valid_tree():
    topology = m_configuration(("I", "F", "T", "S"), beam_width=2)
    assert sorted(topology.attachments) == ["F", "I", "S", "T"]
    assert len(topology.edges) == len(topology.serializer_sites) - 1


def test_run_once_uses_m_configuration_for_saturn():
    workload = SyntheticWorkload(correlation="full")
    results = run_once("saturn", workload, TINY, sites=("I", "F", "T"))
    cluster = results.cluster
    assert cluster.service is not None
    assert results.ops_completed > 0


def test_run_once_passes_overrides():
    workload = SyntheticWorkload(correlation="full")
    results = run_once("eventual", workload, TINY, sites=("I", "F"),
                       clients_per_dc=1)
    assert len(results.cluster.clients) == 2


def test_run_once_before_run_hook():
    seen = []
    workload = SyntheticWorkload(correlation="full")
    run_once("eventual", workload, TINY, sites=("I", "F"),
             before_run=lambda cluster: seen.append(cluster))
    assert len(seen) == 1


def test_ablation_sink_batching_rows():
    result = run_experiment("ablation-sink-batching", TINY, periods=(1.0, 8.0))
    assert len(result["rows"]) == 2
    fast, slow = result["rows"]
    assert slow["mean_visibility_ms"] > fast["mean_visibility_ms"]


def test_ablation_genuine_partial_rows():
    result = run_experiment("ablation-genuine-partial", TINY)
    full, partial = result["rows"]
    assert partial["total_labels"] < full["total_labels"]
    assert set(full["labels_processed_per_dc"]) == set(
        partial["labels_processed_per_dc"])


def test_unknown_experiment_parameter_is_rejected():
    with pytest.raises(TypeError):
        run_experiment("fig7", TINY, panels=("a",))


def test_a_sweep_lets_go_of_its_clusters(monkeypatch):
    """Each run of an experiment whose fold reads no cluster is detached
    from it as it ends: a long sweep holds samples, not clusters."""
    runs, _ = EXPERIMENTS["ablation-parallel-apply"].plan(TINY)
    monkeypatch.setitem(EXPERIMENTS, "spy", Experiment(
        "spy", "", lambda scale: (runs, lambda results: {
            "kept": list(results.values())})))
    kept = run_experiment("spy", TINY)["kept"]
    assert [result.cluster for result in kept] == [None, None]
    assert all(result.visibility.count() for result in kept)


def test_the_table_builds_nothing_at_import():
    """Every benchmark workload's set-up time includes this import: the
    table registers plans, it solves no configuration."""
    code = ("import repro.harness.experiments as e, repro.harness.runner as r;"
            "assert len(e.EXPERIMENTS) == 16 and not r._mconf_cache")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
