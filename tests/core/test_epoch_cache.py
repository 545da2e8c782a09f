"""Epoch changes must invalidate the static-tree memoizations.

Both the interest sets cached on :class:`ReplicationMap` and the routing
views cached on :class:`TreeTopology` assume the tree never changes.  A
repaired topology is often produced by *mutating a copy in place* (the
failure path: drop the dead serializer, re-attach its datacenters), so
``SaturnService.install_tree`` has to rebuild both on every epoch change —
serializers resolve their hot-path routing from the memo at construction,
and a stale view silently detaches a datacenter from the new tree."""

from repro.core.label import Label, LabelType
from repro.core.replication import ReplicationMap
from repro.core.serializer import interest_of
from repro.core.service import SaturnService
from repro.core.tree import TreeTopology
from repro.sim.engine import Simulator
from repro.sim.network import LatencyModel, Network

SITES = ("I", "F", "T")


def _chain():
    return TreeTopology(
        serializer_sites={"sI": "I", "sF": "F", "sT": "T"},
        edges=[("sI", "sF"), ("sF", "sT")],
        attachments={"I": "sI", "F": "sF", "T": "sT"})


def _service():
    sim = Simulator()
    network = Network(sim, latency_model=LatencyModel(local_latency=0.25),
                      default_latency=0.25)
    replication = ReplicationMap(list(SITES))
    replication.set_group("g0", SITES)
    service = SaturnService(sim, network, replication)
    service.install_tree(_chain(), epoch=0)
    return service, replication


def test_install_tree_rebuilds_routing_of_an_in_place_repaired_topology():
    service, _ = _service()

    repaired = _chain()
    # warm the memo the way planners do before deciding on the repair
    assert "T" not in repaired.routing("sF").attached
    # the repair: sT is gone, its leaf re-attaches to sF
    repaired.attachments["T"] = "sF"
    del repaired.serializer_sites["sT"]
    repaired.edges.remove(("sF", "sT"))

    service.install_tree(repaired, epoch=1)

    # without the rebuild the epoch-1 sF serializer is constructed from
    # the stale view and never delivers to T
    new_sf = service.serializers(1)["sF"]
    assert [dc for dc, _ in new_sf._attached] == ["F", "T"]
    assert "T" in repaired.routing("sF").attached
    assert repaired.reachable_dcs("sI", "sF") == frozenset({"F", "T"})


def test_install_tree_drops_stale_interest_sets():
    service, replication = _service()
    replication.interest_cache[("stale", "sentinel")] = frozenset({"I"})

    repaired = _chain()
    service.install_tree(repaired, epoch=1)

    assert ("stale", "sentinel") not in replication.interest_cache


def _update(key, origin):
    return Label(LabelType.UPDATE, src=f"{origin}/g0", ts=1.0, target=key,
                 origin_dc=origin)


def test_equal_interest_answers_are_one_object_until_either_clear():
    service, replication = _service()
    replication.set_group("g1", SITES)
    first = interest_of(_update("g0:a", "I"), replication)
    # another key, another group, another cache entry: the same answer
    second = interest_of(_update("g1:b", "I"), replication)
    heartbeat = interest_of(Label(LabelType.HEARTBEAT, src="I/sink", ts=1.0,
                                  origin_dc="I"), replication)
    assert first == second == heartbeat == frozenset({"F", "T"})
    assert first is second is heartbeat
    assert len(replication.interest_cache) == 3
    assert replication.interest_sets == {first: first}

    replication.set_group("g2", ("I", "F"))
    assert not replication.interest_cache and not replication.interest_sets
    assert interest_of(_update("g2:c", "I"), replication) == frozenset({"F"})

    service.install_tree(_chain(), epoch=1)
    assert not replication.interest_cache and not replication.interest_sets
