"""Okapi baseline: hybrid clocks, knowledge matrix, global-cut GSV."""

from repro.baselines.base import BaselinePayload
from repro.baselines.cure import freeze_vector
from repro.baselines.okapi import HybridClock, OkapiDatacenter, OkapiStabMsg
from repro.core.label import Label, LabelType
from repro.core.replication import ReplicationMap
from repro.datacenter.messages import ClientUpdate
from repro.harness.runner import MetricsHub
from repro.sim.clock import PhysicalClock
from repro.sim.cpu import CostModel
from repro.sim.engine import Simulator
from repro.sim.network import LatencyModel, Network
from repro.sim.process import Process


def make_cluster(partial=False):
    sim = Simulator()
    model = LatencyModel(local_latency=0.25)
    model.set("I", "F", 10.0)
    model.set("I", "T", 100.0)
    model.set("F", "T", 110.0)
    network = Network(sim, latency_model=model)
    replication = ReplicationMap(["I", "F", "T"])
    if partial:
        replication.set_group("g0", ("I", "F", "T"))
        replication.set_group("g1", ("I", "F"))
    metrics = MetricsHub(sim)
    dcs = {}
    for site in ("I", "F", "T"):
        dc = OkapiDatacenter(sim, site, site, replication, CostModel(),
                             PhysicalClock(sim), metrics=metrics)
        dc.attach_network(network)
        network.place(dc.name, site)
        dcs[site] = dc
    for dc in dcs.values():
        dc.start()
    return sim, dcs, metrics


class Probe(Process):
    def __init__(self, sim, network):
        super().__init__(sim, "probe")
        self.attach_network(network)

    def receive(self, sender, message):
        pass


def write(sim, dc, key="k"):
    probe = Probe(sim, dc.network)
    sim.schedule_at(sim.now, lambda: dc._client_update(
        probe.name, ClientUpdate("c", key, 8, None)))


def payload(ts, origin="I", key="k", deps=None):
    label = Label(LabelType.UPDATE, src=f"{origin}/g0", ts=ts, target=key,
                  origin_dc=origin)
    stamp = dict(deps or {})
    stamp[origin] = ts
    return BaselinePayload(label=label, key=key, value_size=8,
                           created_at=ts, stamp=freeze_vector(stamp))


# ---------------------------------------------------------------------------
# HybridClock
# ---------------------------------------------------------------------------

class FakePhysical:
    def __init__(self):
        self.value = 0.0

    def now(self):
        return self.value


def test_hlc_follows_physical_time_while_it_advances():
    phys = FakePhysical()
    hlc = HybridClock(phys)
    phys.value = 5.0
    assert hlc.timestamp() == 5.0
    phys.value = 9.0
    assert hlc.timestamp() == 9.0
    assert hlc.logical_bumps == 0


def test_hlc_stays_monotone_when_physical_steps_backward():
    phys = FakePhysical()
    hlc = HybridClock(phys)
    phys.value = 10.0
    first = hlc.timestamp()
    phys.value = 2.0  # resync yanked the clock back 8 ms
    second = hlc.timestamp()
    third = hlc.timestamp()
    assert first < second < third
    assert second - first < 1e-6  # logical ticks, not physical jumps
    assert hlc.logical_bumps == 2
    phys.value = 20.0  # physical time catches up and takes over again
    assert hlc.timestamp() == 20.0


def test_hlc_observe_merges_remote_timestamps():
    phys = FakePhysical()
    phys.value = 1.0
    hlc = HybridClock(phys)
    hlc.observe(50.0)  # a skewed remote clock runs far ahead
    ts = hlc.timestamp()
    assert ts > 50.0
    assert hlc.logical_bumps == 1
    hlc.observe(3.0)  # stale observations never move the clock back
    assert hlc.timestamp() > ts


def test_hlc_respects_at_least_floor():
    phys = FakePhysical()
    hlc = HybridClock(phys)
    assert hlc.timestamp(at_least=7.5) > 7.5


# ---------------------------------------------------------------------------
# knowledge matrix and GSV
# ---------------------------------------------------------------------------

def test_gsv_is_column_minimum_over_all_observers():
    sim, dcs, _ = make_cluster()
    dc = dcs["F"]
    dc._received["I"] = 10.0
    dc._matrix["I"] = {"I": 30.0}  # I's clock-floor promise
    dc._matrix["T"] = {"I": 4.0}
    assert dc.gsv("I") == 4.0  # T's knowledge lags: it bounds the cut
    dc._matrix["T"] = {"I": 25.0}
    assert dc.gsv("I") == 10.0  # now our own receipt is the bound


def test_stable_entry_own_dc_is_infinite():
    sim, dcs, _ = make_cluster()
    assert dcs["F"].stable_entry("F") == float("inf")
    assert dcs["F"].stable_entry("I") == float("-inf")


def test_stab_msg_floor_advances_receiver_knowledge_of_sender():
    """The liveness fix: the sender's own floor entry counts as received
    knowledge, so a datacenter replicating none of the sender's keys
    still lets the GSV advance."""
    sim, dcs, _ = make_cluster()
    row = freeze_vector({"T": 42.0})
    dcs["F"].receive("dc:T", OkapiStabMsg(origin_dc="T", entries=row))
    assert dcs["F"]._received["T"] == 42.0
    assert dcs["F"]._matrix["T"] == {"T": 42.0}


def test_payload_receipt_merges_hlc_and_knowledge():
    sim, dcs, _ = make_cluster()
    sim.run(until=50.0)
    p = payload(sim.now + 30.0, origin="I")  # future-stamped (skewed origin)
    dcs["F"]._on_payload(p)
    assert dcs["F"]._received["I"] == p.label.ts
    assert dcs["F"].hlc.timestamp() > p.label.ts  # observe() merged it


def test_visibility_is_global_cut_not_origin_latency():
    """Contrast with Cure (test_cure asserts < 40 ms on this cluster):
    Okapi's GSV waits for the slowest datacenter to confirm receipt, so
    I->F visibility is bounded by the T links, not the 10 ms I-F link."""
    sim, dcs, metrics = make_cluster()
    sim.run(until=300.0)
    write(sim, dcs["I"])
    sim.run(until=sim.now + 500.0)
    samples = metrics.visibility.samples("I", "F")
    assert samples
    assert samples[0] > 100.0
    assert dcs["F"].store.get("k") is not None


def test_partial_replication_keeps_gsv_live():
    """T replicates nothing from group g1, so it never receives g1
    payloads — the stabilization floor alone must keep g1 visibility at
    F advancing."""
    sim, dcs, _ = make_cluster(partial=True)
    sim.run(until=300.0)
    write(sim, dcs["I"], key="g1:p")
    sim.run(until=sim.now + 500.0)
    assert dcs["F"].store.get("g1:p") is not None
    assert dcs["T"].store.get("g1:p") is None  # not replicated there


def test_stabilization_cost_charged_to_one_partition():
    sim, dcs, _ = make_cluster()
    sim.run(until=100.0)
    busy = [partition.cpu.busy_time for partition in dcs["I"].store.partitions]
    assert busy[0] > busy[1]
