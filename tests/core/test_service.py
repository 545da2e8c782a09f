"""Unit tests for the Saturn service assembly (trees, epochs, faults)."""

import pytest

from repro.core.replication import ReplicationMap
from repro.core.service import SaturnService
from repro.core.tree import TreeTopology
from repro.sim.engine import Simulator
from repro.sim.network import LatencyModel, Network


def make_service():
    sim = Simulator()
    network = Network(sim)
    replication = ReplicationMap(["I", "F"])
    return SaturnService(sim, network, replication), network


def star():
    return TreeTopology.star("I", {"I": "I", "F": "F"})


def test_install_tree_creates_placed_processes():
    service, network = make_service()
    network.latency_model = LatencyModel()
    network.latency_model.set("I", "F", 40.0)
    network.place("probe", "F")
    service.install_tree(star(), epoch=0)
    assert set(service.serializers()) == {"S1"}
    name = service.serializer_process_name(0, "S1")
    # placed at I: its link to a process at F costs the I-F latency
    assert network.base_latency(name, "probe") == 40.0


def test_install_same_epoch_twice_rejected():
    service, _ = make_service()
    service.install_tree(star(), epoch=0)
    with pytest.raises(ValueError):
        service.install_tree(star(), epoch=0)


def test_ingress_process_resolution():
    service, _ = make_service()
    service.install_tree(star(), epoch=0)
    assert service.ingress_process("I", 0) == "ser:e0:S1"
    assert service.ingress_process("I", 99) is None
    assert service.ingress_process("ghost", 0) is None


def test_next_epoch_increments():
    service, _ = make_service()
    assert service.next_epoch() == 0
    service.install_tree(star(), epoch=0)
    assert service.next_epoch() == 1
    service.install_tree(star(), epoch=1)
    assert service.next_epoch() == 2


def test_topology_accessor_defaults_to_current_epoch():
    service, _ = make_service()
    service.install_tree(star(), epoch=0)
    assert service.topology().attachments == {"I": "S1", "F": "S1"}


def test_fail_tree_kills_all_serializers():
    service, _ = make_service()
    service.install_tree(star(), epoch=0)
    service.fail_tree()
    assert not service.serializers()["S1"].alive


def test_crash_replica_delegates():
    service, _ = make_service()
    service.install_tree(star(), epoch=0)
    service.crash_replica("S1")  # single replica: group dies
    assert not service.serializers()["S1"].alive
