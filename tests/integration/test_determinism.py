"""Determinism and convergence of full runs."""

import pytest

from repro.analysis.runtime import HazardMonitor
from repro.harness.runner import Cluster, ClusterConfig
from repro.workloads.synthetic import SyntheticWorkload


def run(seed, system="saturn", monitored=False, **config_overrides):
    workload = SyntheticWorkload(correlation="full", read_ratio=0.8,
                                 keys_per_group=8, groups_per_dc=2)
    cluster = Cluster(ClusterConfig(system=system, sites=("I", "F", "T"),
                                    clients_per_dc=4, seed=seed,
                                    **config_overrides), workload)
    if monitored:
        HazardMonitor.install(cluster.network)
    results = cluster.run(duration=500.0, warmup=100.0)
    return cluster, results


def monitor_of(cluster):
    (monitor,) = cluster.network.observers
    return monitor


def test_identical_seeds_identical_executions():
    cluster_a, results_a = run(seed=7)
    cluster_b, results_b = run(seed=7)
    assert results_a.ops_completed == results_b.ops_completed
    assert results_a.throughput == results_b.throughput
    assert cluster_a.sim.events_executed == cluster_b.sim.events_executed
    assert (results_a.visibility.samples() == results_b.visibility.samples())


def test_double_run_identical_event_trace_digests():
    """Bit-level determinism: two runs with the same seed produce the
    identical delivery trace — a SHA-256 over every (time, src, dst,
    message-type[, label]) tuple — with the runtime FIFO checker enabled.
    The checker itself must also come back clean on both runs."""
    cluster_a, _ = run(seed=13, monitored=True)
    cluster_b, _ = run(seed=13, monitored=True)
    report_a = monitor_of(cluster_a).report()
    report_b = monitor_of(cluster_b).report()
    assert report_a.ok, report_a.summary()
    assert report_b.ok, report_b.summary()
    assert report_a.messages_delivered == report_b.messages_delivered
    assert report_a.trace_digest == report_b.trace_digest

    cluster_c, _ = run(seed=14, monitored=True)
    assert monitor_of(cluster_c).report().trace_digest != report_a.trace_digest


def test_tracing_does_not_change_results():
    """``Network.send`` schedules one delivery event per message whether
    or not observers are installed, so a traced run is the untraced run
    plus observation: same simulated outcome, same messages, same events."""
    cluster_plain, results_plain = run(seed=7)
    cluster_traced, results_traced = run(seed=7, monitored=True)
    assert results_plain.ops_completed == results_traced.ops_completed
    assert results_plain.throughput == results_traced.throughput
    assert (results_plain.visibility.samples()
            == results_traced.visibility.samples())
    assert (cluster_plain.network.messages_sent
            == cluster_traced.network.messages_sent)
    assert (cluster_plain.sim.events_executed
            == cluster_traced.sim.events_executed)


def test_different_seeds_differ():
    _, results_a = run(seed=7)
    _, results_b = run(seed=8)
    assert results_a.visibility.samples() != results_b.visibility.samples()


@pytest.mark.parametrize("system", ("saturn", "gentlerain", "cure",
                                    "eventual"))
def test_replicas_converge_after_quiescence(system):
    """Once clients stop and the pipes drain, every replicated key holds
    the same version at every datacenter that replicates it."""
    cluster, _ = run(seed=3, system=system)
    for client in cluster.clients:
        client.stop()
    cluster.sim.run(until=cluster.sim.now + 2000.0)
    dcs = list(cluster.datacenters.values())
    keys = set()
    for dc in dcs:
        for partition in dc.store.partitions:
            keys.update(partition._data)
    assert keys, "the run must have written something"
    for key in keys:
        versions = set()
        for dc in dcs:
            stored = dc.store.get(key)
            if stored is not None:
                versions.add((stored.label.ts, stored.label.src))
        assert len(versions) == 1, f"divergence on {key}: {versions}"
