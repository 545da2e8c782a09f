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


def test_interest_of_memo_holds_one_update_entry_per_group_and_origin():
    """Keys of one group share a memo entry; a key that only looks like a
    group's (no ":", no leading "g", or none at all) gets the default
    replica set, however the memo met its group first."""
    replication = ReplicationMap(["I", "F", "T"])
    replication.set_group("gx", ["I", "F"])
    targets = ["gx:0", "gx", "gx:1", "x:0", ":gx", None, "gx:2:3"]
    answers = [interest_of(update_label(1.0, "I", key=target), replication)
               for target in targets]
    assert answers == [replication.replicas(target or "") - {"I"}
                       for target in targets]
    assert answers[0] == answers[2] == answers[6] == frozenset({"F"})
    assert answers[1] == answers[3] == frozenset({"F", "T"})
    # gx:*, gx, x:*, :gx and the empty target: five update entries
    assert len(replication.interest_cache) == 5
    interest_of(update_label(2.0, "F", key="gx:9"), replication)
    assert len(replication.interest_cache) == 6


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


# -- cached routes equal the uncached routing rule ----------------------------

def _reference_routes(serializer, labels, came_from, sender):
    """The routing rule evaluated from scratch: the interest set from the
    replication map, the directions from the topology (no memo, no
    cached table), partitioned per direction in first-label order."""
    replication = serializer.replication
    routing = serializer.topology.routing(serializer.tree_name)
    per_neighbor, per_dc = {}, {}
    for label in labels:
        if label.type is LabelType.UPDATE:
            interested = set(replication.replicas(label.target))
        elif label.type is LabelType.MIGRATION:
            interested = {label.target}
        else:
            interested = set(replication.datacenters)
        interested.discard(label.origin_dc)
        for neighbor in routing.neighbors:
            if neighbor != came_from and interested & routing.reachable[neighbor]:
                key = (serializer.peer_process_name(neighbor),
                       routing.delays[neighbor])
                per_neighbor.setdefault(key, []).append(label)
        for dc in routing.attached:
            delivery = serializer.delivery_name(dc)
            if dc in interested and delivery != sender:
                per_dc.setdefault((delivery, 0.0), []).append(label)
    return [(to, tuple(routed), delay) for (to, delay), routed
            in [*per_neighbor.items(), *per_dc.items()]]


def _route_everything(service, labels):
    """Route *labels* through every serializer from every possible sender,
    one at a time and as one mixed batch; compare with the reference."""
    for serializer in service.serializers(0).values():
        sent = []
        serializer._forward = (lambda to, batch, extra_delay=0.0:
                               sent.append((to, batch.labels, extra_delay)))
        routing = serializer.topology.routing(serializer.tree_name)
        senders = [(serializer.peer_process_name(n), n)
                   for n in routing.neighbors]
        senders += [(serializer.delivery_name(dc), None)
                    for dc in routing.attached]
        for sender, came_from in senders:
            for batch in [*((label,) for label in labels), tuple(labels)]:
                sent.clear()
                serializer._route_batch(LabelBatch(batch), came_from, sender)
                assert sent == _reference_routes(serializer, batch,
                                                 came_from, sender)


@pytest.mark.parametrize("sites", [("I", "F", "T"), ("NV", "I", "F", "T", "S"),
                                   ("NV", "NC", "O", "I", "F", "T", "S")],
                         ids=["chain3", "tree5", "geo7"])
def test_cached_routes_equal_the_uncached_rule(sites):
    from repro.config.latencies import ec2_latency, ec2_latency_model
    from repro.harness.runner import m_configuration
    from repro.sim.rng import RngRegistry
    from repro.workloads.synthetic import SyntheticWorkload

    replication = SyntheticWorkload(groups_per_dc=2).replication_map(
        sites, ec2_latency, RngRegistry(seed=5))
    sim = Simulator()
    service = SaturnService(sim, Network(sim, ec2_latency_model()),
                            replication)
    service.install_tree(m_configuration(sites, beam_width=2), epoch=0)
    groups = sorted(replication.groups())
    labels = [update_label(float(i), origin, key=f"{group}:0")
              for i, (origin, group) in enumerate(
                  (o, g) for o in sites for g in groups)]
    labels += [Label(LabelType.HEARTBEAT, src=f"{sites[0]}/sink", ts=0.5,
                     origin_dc=sites[0]),
               Label(LabelType.MIGRATION, src=f"{sites[1]}/g0", ts=0.7,
                     target=sites[-1], origin_dc=sites[1])]
    _route_everything(service, labels)
    # a group moves: the interest memo is dropped, the route cache (keyed
    # by interest set) must still answer with the new placement
    replication.set_group(groups[0], sites[:2])
    replication.set_group(groups[-1], sites)
    _route_everything(service, labels)
