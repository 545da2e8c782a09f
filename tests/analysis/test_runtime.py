"""The runtime hazard checker: FIFO auditing, digesting, and the causality
cross-check, on both toy networks and a real cluster."""

from repro.analysis.runtime import HazardMonitor
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.process import Process
from repro.verify.checker import ExecutionLog
from repro.workloads.synthetic import SyntheticWorkload


class Recorder(Process):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.inbox = []

    def receive(self, sender, message):
        self.inbox.append((sender, message))


def toy_pair():
    sim = Simulator()
    network = Network(sim, default_latency=1.0)
    a, b = Recorder(sim, "a"), Recorder(sim, "b")
    a.attach_network(network)
    b.attach_network(network)
    return sim, network, a, b


# ---------------------------------------------------------------------------
# FIFO auditing
# ---------------------------------------------------------------------------

def test_clean_link_has_no_fifo_violations():
    sim, network, a, b = toy_pair()
    monitor = HazardMonitor.install(network)
    for i in range(20):
        a.send("b", i)
    sim.run()
    report = monitor.report()
    assert report.ok
    assert report.messages_delivered == 20
    assert b.inbox == [("a", i) for i in range(20)]


def test_fifo_holds_even_when_latency_drops_mid_stream():
    """A later message on a faster link must still arrive after the
    earlier, slower one — the network clamps, the monitor confirms."""
    sim, network, a, b = toy_pair()
    monitor = HazardMonitor.install(network)
    network.inject_extra_delay("a", "b", 50.0)
    a.send("b", "slow")
    network.inject_extra_delay("a", "b", 0.0)
    a.send("b", "fast")
    sim.run()
    assert [m for _, m in b.inbox] == ["slow", "fast"]
    assert monitor.report().ok


def test_out_of_order_delivery_is_reported():
    """Drive the trace protocol directly with a reordered link."""
    monitor = HazardMonitor()
    monitor.on_send("a", "b", "m1", arrival=1.0)
    monitor.on_send("a", "b", "m2", arrival=2.0)
    monitor.on_deliver("a", "b", seq=2, message="m2")
    monitor.on_deliver("a", "b", seq=1, message="m1")
    report = monitor.report()
    assert not report.ok
    assert len(report.fifo_violations) >= 1
    violation = report.fifo_violations[0]
    assert (violation.src, violation.dst) == ("a", "b")
    assert "FIFO violation" in violation.describe()


def test_arrival_regression_at_send_time_is_reported():
    monitor = HazardMonitor()
    monitor.on_send("a", "b", "m1", arrival=5.0)
    monitor.on_send("a", "b", "m2", arrival=3.0)  # would overtake
    assert not monitor.report().ok


def test_partitioned_links_hold_without_violation():
    sim, network, a, b = toy_pair()
    monitor = HazardMonitor.install(network)
    network.partition("a", "b")
    a.send("b", "held")
    network.heal("a", "b")
    a.send("b", "arrives")
    sim.run()
    # the reliable link releases the held message at heal time, keeping
    # its FIFO slot ahead of traffic sent after the heal
    assert [m for _, m in b.inbox] == ["held", "arrives"]
    assert monitor.report().ok


class Bystander:
    """Another network observer, installed before the monitor."""

    def on_send(self, src, dst, message, arrival):
        pass

    def on_deliver(self, src, dst, seq, message):
        pass


def test_monitor_added_after_another_observer_reports_no_false_violation():
    """The network numbered this link's sends before the monitor joined,
    and two of them are still in flight: the monitor anchors on the first
    delivery it sees instead of expecting send #1."""
    sim, network, a, b = toy_pair()
    network.observers += (Bystander(),)
    for i in range(5):
        a.send("b", i)
    sim.run(until=1.5)
    for i in range(5, 7):
        a.send("b", i)
    monitor = HazardMonitor.install(network)
    for i in range(7, 10):
        a.send("b", i)
    sim.run()
    report = monitor.report()
    assert report.ok, report.summary()
    assert report.messages_delivered == 5
    assert b.inbox == [("a", i) for i in range(10)]


# ---------------------------------------------------------------------------
# full-cluster integration: FIFO + causality cross-check
# ---------------------------------------------------------------------------

def checked_cluster_run(seed=11, duration=400.0):
    from repro.harness.runner import Cluster, ClusterConfig
    workload = SyntheticWorkload(correlation="full", read_ratio=0.7,
                                 value_size=8, keys_per_group=4,
                                 groups_per_dc=2)
    cluster = Cluster(ClusterConfig(system="saturn", sites=("I", "F", "T"),
                                    clients_per_dc=2, seed=seed), workload)
    monitor = HazardMonitor.install(cluster.network)
    log = ExecutionLog(cluster.replication)
    cluster.attach_execution_log(log)
    cluster.run(duration=duration, warmup=50.0)
    return monitor, log


def test_saturn_run_is_fifo_clean_and_causally_consistent():
    monitor, log = checked_cluster_run()
    assert monitor.crosscheck(log) == []
    report = monitor.report()
    assert report.ok, report.summary()
    assert report.labels_delivered > 0
    assert len(report.trace_digest) == 64


def test_crosscheck_catches_fabricated_visibility_reordering():
    """Feed the monitor a label stream the log says became visible in the
    opposite order; the cross-check must object."""
    from repro.core.label import Label, LabelType
    from repro.core.replication import ReplicationMap
    from repro.datacenter.messages import LabelBatch

    replication = ReplicationMap(["A", "B"])
    log = ExecutionLog(replication)
    first = Label(LabelType.UPDATE, src="gA", ts=1.0, target="k1",
                  origin_dc="A")
    second = Label(LabelType.UPDATE, src="gA", ts=2.0, target="k2",
                   origin_dc="A")
    # at datacenter B the log records: second visible, then first
    log.record_update(first, origin_dc="A", created_at=1.0)
    log.record_update(second, origin_dc="A", created_at=2.0)
    log.record_visible(second, dc="B", at=5.0)
    log.record_visible(first, dc="B", at=6.0)

    monitor = HazardMonitor()
    batch = LabelBatch((first, second), epoch=0)
    monitor.on_send("ser", "dc:B", batch, arrival=4.0)
    monitor.on_deliver("ser", "dc:B", 1, batch)
    violations = monitor.crosscheck(log)
    assert violations, "reordered visibility must be reported"
    assert not monitor.report().ok
