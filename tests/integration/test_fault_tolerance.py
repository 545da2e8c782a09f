"""Fault tolerance: Saturn outages never impair data availability (§6.1)."""

from repro.harness.runner import Cluster, ClusterConfig
from repro.verify.checker import ExecutionLog
from repro.workloads.synthetic import SyntheticWorkload

SITES = ("I", "F", "T")


def build(seed=1):
    workload = SyntheticWorkload(correlation="full", read_ratio=0.7,
                                 keys_per_group=4, groups_per_dc=2)
    cluster = Cluster(ClusterConfig(system="saturn", sites=SITES,
                                    clients_per_dc=4, seed=seed,
                                    beacon_period=25.0,
                                    dc_params=dict(beacon_timeout=100.0,
                                                   stabilization_wait=50.0)),
                      workload)
    log = ExecutionLog(cluster.replication)
    cluster.attach_execution_log(log)
    return cluster, log


def test_outage_detected_and_updates_keep_flowing():
    cluster, log = build()
    cluster.sim.schedule(300.0, lambda: cluster.service.fail_tree())
    results = cluster.run(duration=2500.0, warmup=100.0)
    # every datacenter noticed and fell back
    for dc in cluster.datacenters.values():
        assert dc.saturn_down
    # ops continued well past the outage
    late_ops = results.ops.ops_in_window(1500.0, 2500.0)
    assert late_ops > 100
    # and updates kept becoming visible remotely (timestamp order)
    late_visibility = [
        lat for pair in results.visibility.pairs()
        for lat in results.visibility.samples(*pair)]
    assert late_visibility
    assert log.check() == []


def test_visibility_degrades_but_survives_outage():
    """After the outage visibility jumps to timestamp-order levels but the
    system keeps delivering (availability preserved)."""
    cluster, _ = build()
    cluster.sim.schedule(300.0, lambda: cluster.service.fail_tree())
    results = cluster.run(duration=2500.0, warmup=1200.0)
    # post-outage samples only (warmup discards the healthy phase)
    assert results.visibility.count() > 0
    assert results.visibility.mean("I", "F") >= 50.0  # fallback is slower


def test_no_outage_without_failure():
    cluster, log = build()
    cluster.run(duration=800.0, warmup=100.0)
    assert all(not dc.saturn_down for dc in cluster.datacenters.values())
    assert log.check() == []


def test_fallback_preserves_causality_across_seeds():
    for seed in (2, 5):
        cluster, log = build(seed=seed)
        cluster.sim.schedule(250.0, lambda c=cluster: c.service.fail_tree())
        cluster.run(duration=1800.0, warmup=100.0)
        assert log.check() == []
