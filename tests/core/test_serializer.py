"""Unit tests for serializers: routing, interest, order, faults."""

import pytest

from repro.core.label import Label, LabelType
from repro.core.replication import ReplicationMap
from repro.core.serializer import interest_of
from repro.core.service import SaturnService
from repro.core.tree import TreeTopology
from repro.datacenter.messages import LabelBatch
from repro.sim.engine import Simulator
from repro.sim.network import LatencyModel, Network
from repro.sim.process import Process


class FakeDC(Process):
    """Stands in for a datacenter: records label batches."""

    def __init__(self, sim, dc_name):
        super().__init__(sim, f"dc:{dc_name}")
        self.labels = []

    def receive(self, sender, message):
        if isinstance(message, LabelBatch):
            self.labels.extend(message.labels)


def update_label(ts, origin, key="gshared:0"):
    return Label(LabelType.UPDATE, src=f"{origin}/g0", ts=ts, target=key,
                 origin_dc=origin)


class Rig:
    """Serializer chain s0(I)-s1(F)-s2(T) with three fake datacenters."""

    def __init__(self, replication=None, delays=None):
        self.sim = Simulator()
        model = LatencyModel(local_latency=0.25)
        model.set("I", "F", 10.0)
        model.set("I", "T", 100.0)
        model.set("F", "T", 110.0)
        self.network = Network(self.sim, latency_model=model)
        self.replication = replication or ReplicationMap(["I", "F", "T"])
        self.topology = TreeTopology(
            serializer_sites={"s0": "I", "s1": "F", "s2": "T"},
            edges=[("s0", "s1"), ("s1", "s2")],
            attachments={"I": "s0", "F": "s1", "T": "s2"},
            delays=delays or {})
        self.service = SaturnService(self.sim, self.network, self.replication)
        self.service.install_tree(self.topology, epoch=0)
        self.dcs = {}
        for name in ("I", "F", "T"):
            dc = FakeDC(self.sim, name)
            dc.attach_network(self.network)
            self.network.place(dc.name, name)
            self.dcs[name] = dc

    def inject(self, dc_name, labels):
        """Send a batch from a datacenter's sink into its ingress."""
        ingress = self.service.ingress_process(dc_name, 0)
        self.network.send(f"dc:{dc_name}", ingress,
                          LabelBatch(tuple(labels), epoch=0))


def test_interest_of_update_is_replica_set_minus_origin():
    replication = ReplicationMap(["I", "F", "T"])
    replication.set_group("gx", ["I", "F"])
    label = update_label(1.0, "I", key="gx:0")
    assert interest_of(label, replication) == frozenset({"F"})


def test_interest_of_migration_is_target():
    replication = ReplicationMap(["I", "F", "T"])
    label = Label(LabelType.MIGRATION, src="I/g0", ts=1.0, target="T",
                  origin_dc="I")
    assert interest_of(label, replication) == frozenset({"T"})


def test_interest_of_heartbeat_is_everyone_else():
    replication = ReplicationMap(["I", "F", "T"])
    label = Label(LabelType.HEARTBEAT, src="I/sink", ts=1.0, origin_dc="I")
    assert interest_of(label, replication) == frozenset({"F", "T"})


def test_update_reaches_all_interested_dcs():
    rig = Rig()
    rig.inject("I", [update_label(1.0, "I")])
    rig.sim.run()
    assert len(rig.dcs["F"].labels) == 1
    assert len(rig.dcs["T"].labels) == 1
    assert rig.dcs["I"].labels == []  # never echoed back to the origin


def test_genuine_partial_replication_prunes_branches():
    replication = ReplicationMap(["I", "F", "T"])
    replication.set_group("gif", ["I", "F"])
    rig = Rig(replication=replication)
    rig.inject("I", [update_label(1.0, "I", key="gif:0")])
    rig.sim.run()
    assert len(rig.dcs["F"].labels) == 1
    assert rig.dcs["T"].labels == []
    # the T-side serializer never even processed the label
    assert rig.service.serializers()["s2"].labels_delivered == 0


def test_labels_delivered_in_sent_order():
    rig = Rig()
    labels = [update_label(float(i), "I") for i in range(20)]
    rig.inject("I", labels[:10])
    rig.inject("I", labels[10:])
    rig.sim.run()
    assert [l.ts for l in rig.dcs["T"].labels] == [float(i) for i in range(20)]


def test_cross_origin_order_preserved_through_common_path():
    """b (issued at F after a was visible there) must follow a at T."""
    rig = Rig()
    a = update_label(1.0, "I")
    rig.inject("I", [a])
    rig.sim.run(until=15.0)  # a has passed s1 and reached F
    assert rig.dcs["F"].labels == [a]
    b = update_label(2.0, "F")
    rig.inject("F", [b])
    rig.sim.run()
    assert rig.dcs["T"].labels == [a, b]


def test_artificial_delay_applied_on_edge():
    plain = Rig()
    delayed = Rig(delays={("s0", "s1"): 50.0})
    label = update_label(1.0, "I")
    for rig in (plain, delayed):
        rig.inject("I", [label])
        rig.sim.run()
    # delivery time visible through simulated clocks: rerun measuring time
    times = {}
    for name, rig in (("plain", Rig()), ("delayed", Rig(delays={("s0", "s1"): 50.0}))):
        rig.inject("I", [update_label(1.0, "I")])
        rig.sim.run()
        times[name] = rig.sim.now
    assert times["delayed"] >= times["plain"] + 50.0


def test_migration_label_routed_only_to_target():
    rig = Rig()
    label = Label(LabelType.MIGRATION, src="I/g0", ts=1.0, target="T",
                  origin_dc="I")
    rig.inject("I", [label])
    rig.sim.run()
    assert rig.dcs["T"].labels == [label]
    assert rig.dcs["F"].labels == []


def test_failed_serializer_drops_labels():
    rig = Rig()
    rig.service.fail_serializer("s1")
    rig.inject("I", [update_label(1.0, "I")])
    rig.sim.run()
    assert rig.dcs["F"].labels == []
    assert rig.dcs["T"].labels == []


def test_chain_replica_crash_shortens_then_kills():
    rig = Rig()
    serializer = rig.service.serializers()["s0"]
    assert serializer.alive
    serializer.crash_replica()  # single-replica chain: the group dies
    assert not serializer.alive


def test_chain_latency_grows_with_replicas():
    sim = Simulator()
    network = Network(sim)
    replication = ReplicationMap(["I", "F"])
    service = SaturnService(sim, network, replication, chain_length=3,
                            local_hop_latency=0.4)
    topo = TreeTopology.star("I", {"I": "I", "F": "F"})
    service.install_tree(topo, epoch=0)
    serializer = service.serializers()["S1"]
    assert serializer.chain_latency == pytest.approx(0.8)
    serializer.crash_replica()
    assert serializer.chain_latency == pytest.approx(0.4)
    assert serializer.alive
