"""Eunomia baseline: site sequencer, deferred stabilization, batching."""

from repro.baselines.base import BaselinePayload
from repro.baselines.eunomia import (EunomiaBatch, EunomiaDatacenter,
                                     EunomiaTick, eunomia_merge)
from repro.core.replication import ReplicationMap
from repro.datacenter.messages import ClientUpdate
from repro.harness.runner import MetricsHub
from repro.sim.clock import PhysicalClock
from repro.sim.cpu import CostModel
from repro.sim.engine import Simulator
from repro.sim.network import LatencyModel, Network
from repro.sim.process import Process


def make_cluster(batch_period=2.0):
    sim = Simulator()
    model = LatencyModel(local_latency=0.25)
    model.set("I", "F", 10.0)
    model.set("I", "T", 100.0)
    model.set("F", "T", 110.0)
    network = Network(sim, latency_model=model)
    replication = ReplicationMap(["I", "F", "T"])
    metrics = MetricsHub(sim)
    dcs = {}
    for site in ("I", "F", "T"):
        dc = EunomiaDatacenter(sim, site, site, replication, CostModel(),
                               PhysicalClock(sim), metrics=metrics,
                               batch_period=batch_period)
        # as Cluster does: the sequencer is the protocol's aux process
        for process in (dc, dc.sequencer):
            process.attach_network(network)
            network.place(process.name, site)
        dcs[site] = dc
    for dc in dcs.values():
        dc.start()
    return sim, dcs, metrics


class Probe(Process):
    """Swallows client replies so _client_update can be driven directly."""

    def __init__(self, sim, network):
        super().__init__(sim, "probe")
        self.attach_network(network)

    def receive(self, sender, message):
        pass


def write(sim, dc, key="k", at=None):
    probe = Probe(sim, dc.network)
    sim.schedule_at(at if at is not None else sim.now, lambda: dc._client_update(
        probe.name, ClientUpdate("c", key, 8, None)))


class TraceRecorder:
    def __init__(self):
        self.delivered = []

    def on_send(self, src, dst, message, arrival):
        pass

    def on_deliver(self, src, dst, seq, message):
        self.delivered.append((src, dst, message))


def test_merge_is_scalar_max():
    assert eunomia_merge(None, 3.0) == 3.0
    assert eunomia_merge(3.0, None) == 3.0
    assert eunomia_merge(2.0, 5.0) == 5.0
    assert eunomia_merge(5.0, 2.0) == 5.0


def test_sequencer_is_colocated_and_started():
    sim, dcs, _ = make_cluster()
    assert dcs["I"].sequencer.name == "seq:I"
    sim.run(until=30.0)
    # batch ticks fire from the start: heartbeats flow even with no updates
    assert dcs["I"].sequencer.batches_sent > 0


def test_updates_route_via_sequencer_not_directly():
    sim, dcs, _ = make_cluster()
    trace = TraceRecorder()
    sim.run(until=200.0)
    dcs["I"].network.observers += (trace,)
    write(sim, dcs["I"])
    sim.run(until=sim.now + 150.0)  # the I-T link alone is 100 ms
    payload_hops = [(src, dst) for src, dst, m in trace.delivered
                    if isinstance(m, BaselinePayload)]
    assert payload_hops == [("dc:I", "seq:I")]
    batch_hops = {(src, dst) for src, dst, m in trace.delivered
                  if isinstance(m, EunomiaBatch) and m.payloads}
    assert batch_hops == {("seq:I", "dc:F"), ("seq:I", "dc:T")}
    assert dcs["I"].sequencer.updates_sequenced == 1


def test_no_all_to_all_stabilization_broadcast():
    """The 5 ms round sends one tick to the co-located sequencer; no
    StabilizationMsg ever crosses the network (the unobtrusive claim)."""
    sim, dcs, _ = make_cluster()
    trace = TraceRecorder()
    dcs["I"].network.observers += (trace,)
    sim.run(until=60.0)
    kinds = {type(m).__name__ for _, _, m in trace.delivered}
    assert "StabilizationMsg" not in kinds
    tick_hops = {(src, dst) for src, dst, m in trace.delivered
                 if isinstance(m, EunomiaTick)}
    assert tick_hops == {("dc:I", "seq:I"), ("dc:F", "seq:F"),
                         ("dc:T", "seq:T")}


def test_remote_floors_come_from_batches():
    sim, dcs, _ = make_cluster()
    sim.run(until=300.0)
    # heartbeat batches alone must advance every remote floor
    assert set(dcs["F"]._remote_info) == {"I", "T"}
    assert dcs["F"]._remote_info["I"] > 0.0
    assert dcs["F"].gst() > 0.0


def test_visibility_waits_for_the_slowest_floor():
    """Global-cut semantics: I's update is visible at F (10 ms away) only
    once T's floor (>=110 ms away) has passed its timestamp too."""
    sim, dcs, _ = make_cluster()
    sim.run(until=300.0)
    write(sim, dcs["I"])
    sim.run(until=sim.now + 60.0)
    # payload + I's floor arrived long ago, but T's floor lags the write
    assert dcs["F"].store.get("k") is None
    sim.run(until=sim.now + 100.0)
    assert dcs["F"].store.get("k") is not None


def test_batch_period_trades_staleness_for_batches():
    sim_fast, dcs_fast, _ = make_cluster(batch_period=2.0)
    sim_fast.run(until=100.0)
    sim_slow, dcs_slow, _ = make_cluster(batch_period=20.0)
    sim_slow.run(until=100.0)
    assert (dcs_slow["I"].sequencer.batches_sent
            < dcs_fast["I"].sequencer.batches_sent / 4)


def test_isolated_sequencer_freezes_remote_visibility():
    sim, dcs, _ = make_cluster()
    sim.run(until=300.0)
    dcs["I"].network.isolate("seq:I")
    write(sim, dcs["I"])
    sim.run(until=sim.now + 200.0)
    assert dcs["I"].store.get("k") is not None   # local write unaffected
    assert dcs["F"].store.get("k") is None       # floor + payload held
    dcs["I"].network.rejoin("seq:I")
    sim.run(until=sim.now + 200.0)
    assert dcs["F"].store.get("k") is not None


def test_scalar_metadata_off_the_client_path():
    sim, dcs, _ = make_cluster()
    assert dcs["I"].vector_entries() == 0
    assert dcs["I"].read_metadata_entries() == 0
    assert dcs["I"].write_metadata_entries() == 0
