"""Cure baseline: vector stamps and per-origin stability."""

import dataclasses

import pytest

from repro.baselines.base import BaselinePayload
from repro.baselines.cure import CureDatacenter, cure_merge, freeze_vector
from repro.core.label import Label, LabelType
from repro.core.replication import ReplicationMap
from repro.harness.runner import MetricsHub
from repro.sim.clock import PhysicalClock
from repro.sim.cpu import CostModel
from repro.sim.engine import Simulator
from repro.sim.network import LatencyModel, Network


def make_cluster():
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
        dc = CureDatacenter(sim, site, site, replication, CostModel(),
                            PhysicalClock(sim), metrics=metrics)
        dc.attach_network(network)
        network.place(dc.name, site)
        dcs[site] = dc
    for dc in dcs.values():
        dc.start()
    return sim, dcs, metrics


def payload(ts, origin="I", key="k", deps=None):
    label = Label(LabelType.UPDATE, src=f"{origin}/g0", ts=ts, target=key,
                  origin_dc=origin)
    stamp = dict(deps or {})
    stamp[origin] = ts
    return BaselinePayload(label=label, key=key, value_size=8,
                           created_at=ts, stamp=freeze_vector(stamp))


def test_merge_vectors():
    v_i = freeze_vector({"I": 1.0})
    assert cure_merge(None, v_i) == v_i
    assert cure_merge(v_i, None) == v_i
    merged = cure_merge(freeze_vector({"I": 1.0, "F": 5.0}),
                        freeze_vector({"I": 3.0, "T": 2.0}))
    assert dict(merged) == {"I": 3.0, "F": 5.0, "T": 2.0}


def test_merge_result_is_canonical():
    # Same entries, same wire form — regardless of merge order.
    a = freeze_vector({"T": 2.0, "I": 1.0})
    b = freeze_vector({"F": 5.0})
    assert cure_merge(a, b) == cure_merge(b, a)
    assert cure_merge(a, b) == freeze_vector({"I": 1.0, "F": 5.0, "T": 2.0})


def test_wire_stamps_are_immutable():
    """Regression: stamps used to be dicts, aliased between the sender's
    payload and the receiver's _key_vectors — one side could silently
    rewrite the other's dependency metadata."""
    merged = cure_merge(freeze_vector({"I": 1.0}), freeze_vector({"F": 2.0}))
    assert isinstance(merged, tuple)
    with pytest.raises(TypeError):
        merged[0] = ("I", 99.0)
    p = payload(5.0)
    assert isinstance(p.stamp, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.stamp = freeze_vector({"I": 99.0})


def test_stored_vector_is_the_wire_stamp_unchanged():
    sim, dcs, _ = make_cluster()
    sim.run(until=200.0)
    p = payload(sim.now - 50.0, origin="I", deps={"T": 1.0})
    dcs["F"]._on_payload(p)
    sim.run(until=sim.now + 100.0)
    assert dcs["F"]._key_vectors["k"] == p.stamp
    assert isinstance(dcs["F"]._key_vectors["k"], tuple)


def test_vector_entries_matches_datacenters():
    sim, dcs, _ = make_cluster()
    assert dcs["I"].vector_entries() == 3


def test_visibility_bound_is_origin_latency():
    """Cure's key property: I->F visibility tracks the I-F link (10 ms),
    not the furthest datacenter."""
    sim, dcs, metrics = make_cluster()
    from repro.datacenter.messages import ClientUpdate
    from repro.sim.process import Process

    class Rec(Process):
        def __init__(self):
            super().__init__(sim, "probe")

        def receive(self, sender, message):
            pass

    Rec().attach_network(dcs["I"].network)
    sim.schedule(200.0, lambda: dcs["I"]._client_update(
        "probe", ClientUpdate("c", "k", 8, None)))
    sim.run(until=400.0)
    samples = metrics.visibility.samples("I", "F")
    assert samples
    assert samples[0] < 40.0  # ~10 ms link + stabilization rounds


def test_update_without_deps_visible_after_origin_stability():
    sim, dcs, _ = make_cluster()
    sim.run(until=200.0)
    p = payload(sim.now - 30.0, origin="I")
    dcs["F"]._on_payload(p)
    sim.run(until=sim.now + 50.0)
    assert dcs["F"].store.get("k") is not None


def test_update_blocked_by_unseen_dependency():
    """u from I depends on d from T; u must wait for d even when I's
    entry is already stable at F."""
    sim, dcs, _ = make_cluster()
    sim.run(until=400.0)
    now = sim.now
    d = payload(now - 50.0, origin="T", key="dep")
    u = payload(now - 20.0, origin="I", key="k",
                deps={"T": now - 50.0})
    # u's payload arrives first (I is close); d's later (T is far)
    dcs["F"]._on_payload(u)
    sim.run(until=sim.now + 40.0)
    assert dcs["F"].store.get("k") is None  # blocked: d not yet revealed
    dcs["F"]._on_payload(d)
    sim.run(until=sim.now + 200.0)
    assert dcs["F"].store.get("dep") is not None
    assert dcs["F"].store.get("k") is not None


def test_read_stamp_returns_dependency_vector():
    sim, dcs, _ = make_cluster()
    sim.run(until=200.0)
    p = payload(sim.now - 50.0, origin="I", deps={"T": 1.0})
    dcs["F"]._on_payload(p)
    sim.run(until=sim.now + 100.0)
    stored = dcs["F"].store.get("k")
    stamp = dict(dcs["F"].read_stamp("k", stored))
    assert stamp["I"] == p.label.ts
    assert stamp["T"] == 1.0


def test_stable_entry_own_dc_is_infinite():
    sim, dcs, _ = make_cluster()
    assert dcs["I"].stable_entry("I") == float("inf")
    assert dcs["I"].stable_entry("T") == float("-inf")


def test_is_stable_vector():
    sim, dcs, _ = make_cluster()
    sim.run(until=300.0)
    assert dcs["F"].is_stable(freeze_vector({"F": 1e9}))  # own entry stable
    assert dcs["F"].is_stable(freeze_vector({"I": 1.0, "T": 1.0}))
    assert not dcs["F"].is_stable(freeze_vector({"I": sim.now + 1e6}))
