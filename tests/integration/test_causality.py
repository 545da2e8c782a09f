"""End-to-end causal-consistency validation for every system.

Each causally consistent system must produce zero violations under the
offline checker; the eventually consistent baseline is the positive control
that demonstrates the checker has teeth.
"""

import pytest

from repro.harness.runner import Cluster, ClusterConfig
from repro.verify.checker import ExecutionLog
from repro.workloads.synthetic import SyntheticWorkload

CAUSAL_SYSTEMS = ("saturn", "saturn-ts", "gentlerain", "cure",
                  "eunomia", "okapi")


def run_checked(system, workload=None, duration=600.0, sites=("I", "F", "T"),
                seed=1, **overrides):
    workload = workload or SyntheticWorkload(
        correlation="full", read_ratio=0.7, value_size=8,
        keys_per_group=4, groups_per_dc=2)
    cluster = Cluster(ClusterConfig(system=system, sites=sites,
                                    clients_per_dc=4, seed=seed, **overrides),
                      workload)
    log = ExecutionLog(cluster.replication)
    cluster.attach_execution_log(log)
    results = cluster.run(duration=duration, warmup=100.0)
    return results, log


@pytest.mark.parametrize("system", CAUSAL_SYSTEMS)
def test_causal_systems_have_no_violations(system):
    results, log = run_checked(system)
    assert results.ops_completed > 500
    assert log.check() == []


def test_eventual_violates_causality_positive_control():
    """A hot shared keyspace with concurrent writers makes the eventually
    consistent store surface dependent updates out of order."""
    results, log = run_checked("eventual")
    assert any(v.kind == "causal-order" for v in log.check())


@pytest.mark.parametrize("system", ("saturn", "gentlerain", "cure"))
def test_causality_holds_under_seven_datacenters(system):
    workload = SyntheticWorkload(correlation="full", read_ratio=0.8,
                                 keys_per_group=4, groups_per_dc=1)
    results, log = run_checked(system, workload=workload,
                               sites=("NV", "NC", "O", "I", "F", "T", "S"),
                               duration=500.0)
    assert results.ops_completed > 500
    assert log.check() == []


def test_saturn_causality_under_partial_replication():
    workload = SyntheticWorkload(correlation="degree", degree=2,
                                 read_ratio=0.7, remote_read_fraction=0.2,
                                 keys_per_group=4)
    results, log = run_checked("saturn", workload=workload,
                               sites=("I", "F", "T"), duration=800.0)
    assert results.ops_completed > 200
    assert log.check() == []


def test_saturn_causality_with_m_configuration():
    from repro.harness.experiments import m_configuration
    sites = ("I", "F", "T", "S")
    topology = m_configuration(sites, beam_width=3)
    workload = SyntheticWorkload(correlation="full", read_ratio=0.7,
                                 keys_per_group=4, groups_per_dc=2)
    results, log = run_checked("saturn", workload=workload, sites=sites,
                               saturn_topology=topology)
    assert results.ops_completed > 500
    assert log.check() == []


def test_saturn_causality_with_clock_skew():
    """Large clock skew must not break correctness (only timestamps drift);
    the monotonic label generation handles it."""
    workload = SyntheticWorkload(correlation="full", read_ratio=0.7,
                                 keys_per_group=4, groups_per_dc=2)
    results, log = run_checked("saturn", workload=workload,
                               max_clock_skew=20.0)
    assert log.check() == []


def test_saturn_causality_without_parallel_apply():
    results, log = run_checked(
        "saturn", dc_params=dict(parallel_concurrent_apply=False))
    assert results.ops_completed > 500
    assert log.check() == []


@pytest.mark.parametrize("seed", (2, 3))
def test_causality_stable_across_seeds(seed):
    results, log = run_checked("saturn", seed=seed)
    assert log.check() == []
