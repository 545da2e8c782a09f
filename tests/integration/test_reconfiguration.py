"""Online reconfiguration (§6.2): fast path and failure path end-to-end."""

from repro.core.reconfig import ReconfigurationManager
from repro.core.tree import TreeTopology
from repro.harness.runner import Cluster, ClusterConfig
from repro.verify.checker import ExecutionLog
from repro.workloads.synthetic import SyntheticWorkload

SITES = ("I", "F", "T")


def build(seed=1):
    workload = SyntheticWorkload(correlation="full", read_ratio=0.7,
                                 keys_per_group=4, groups_per_dc=2)
    c1 = TreeTopology.star("I", {s: s for s in SITES})
    cluster = Cluster(ClusterConfig(system="saturn", sites=SITES,
                                    clients_per_dc=4, seed=seed,
                                    saturn_topology=c1), workload)
    log = ExecutionLog(cluster.replication)
    cluster.attach_execution_log(log)
    manager = ReconfigurationManager(cluster.service,
                                     list(cluster.datacenters.values()))
    c2 = TreeTopology.star("T", {s: s for s in SITES})
    return cluster, log, manager, c2


def test_fast_path_completes_quickly():
    cluster, log, manager, c2 = build()
    cluster.sim.schedule(300.0, lambda: manager.reconfigure(c2))
    cluster.run(duration=1200.0, warmup=100.0)
    assert manager.complete()
    times = [t for per_dc in manager.reconfiguration_times().values()
             for t in per_dc]
    assert times
    # bounded by the largest metadata path in C1 (paper: < 200 ms)
    assert max(times) < 300.0
    assert log.check() == []


def test_fast_path_no_updates_lost():
    cluster, log, manager, c2 = build()
    cluster.sim.schedule(300.0, lambda: manager.reconfigure(c2))
    results = cluster.run(duration=1500.0, warmup=100.0)
    # writes issued after the switch still replicate everywhere
    late = results.ops.ops_in_window(800.0, 1500.0)
    assert late > 100
    assert log.check() == []


def test_failure_path_reconfiguration():
    cluster, log, manager, c2 = build()

    def break_and_switch():
        cluster.service.fail_tree(epoch=0)
        manager.reconfigure(c2, emergency=True)

    cluster.sim.schedule(300.0, break_and_switch)
    results = cluster.run(duration=2500.0, warmup=100.0)
    assert manager.complete()
    late = results.ops.ops_in_window(1500.0, 2500.0)
    assert late > 100
    assert log.check() == []


def test_new_epoch_used_after_switch():
    cluster, log, manager, c2 = build()
    cluster.sim.schedule(300.0, lambda: manager.reconfigure(c2))
    cluster.run(duration=1200.0, warmup=100.0)
    epoch = manager.last_epoch
    for dc in cluster.datacenters.values():
        assert dc.proxy.current_epoch == epoch
        assert dc.sink_epoch == epoch
    assert cluster.service.current_epoch == epoch


def test_failure_path_visibility_resumes():
    """After the emergency switch, remote updates must keep becoming
    visible through the new tree (regression: payloads parked for the
    timestamp path used to strand the C2 queue)."""
    cluster, log, manager, c2 = build()

    def break_and_switch():
        cluster.service.fail_tree(epoch=0)
        manager.reconfigure(c2, emergency=True)

    cluster.sim.schedule(300.0, break_and_switch)
    # count only visibility events well after the switch completed
    results = cluster.run(duration=3000.0, warmup=1600.0)
    assert manager.complete()
    assert results.visibility.count() > 100
    # pairs the C2 star (Tokyo) serves directly are tree-fast again
    # (T->F labels go T->serializer@T->F: ~the 118 ms bulk latency)
    assert results.visibility.mean("T", "F") < 140.0
    assert log.check() == []
