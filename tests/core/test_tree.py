"""Unit tests for the serializer tree topology."""

import pytest
from hypothesis import given, strategies as st

from repro.core.tree import TopologyError, TreeTopology


def chain_topology():
    """s0(I) - s1(F) - s2(T), one datacenter per serializer."""
    return TreeTopology(
        serializer_sites={"s0": "I", "s1": "F", "s2": "T"},
        edges=[("s0", "s1"), ("s1", "s2")],
        attachments={"I": "s0", "F": "s1", "T": "s2"},
        delays={("s0", "s1"): 5.0})


def lat(a, b):
    table = {frozenset(("I", "F")): 10.0, frozenset(("I", "T")): 100.0,
             frozenset(("F", "T")): 110.0}
    return 0.0 if a == b else table[frozenset((a, b))]


def test_star_topology():
    star = TreeTopology.star("I", {"I": "I", "F": "F"})
    assert star.serializers == ["S1"]
    assert star.attachments == {"I": "S1", "F": "S1"}
    assert star.edges == []


def test_requires_at_least_one_serializer():
    with pytest.raises(TopologyError):
        TreeTopology(serializer_sites={}, edges=[], attachments={})


def test_rejects_self_loop():
    with pytest.raises(TopologyError):
        TreeTopology(serializer_sites={"s0": "I", "s1": "F"},
                     edges=[("s0", "s0")], attachments={})


def test_rejects_unknown_edge_endpoint():
    with pytest.raises(TopologyError):
        TreeTopology(serializer_sites={"s0": "I"},
                     edges=[("s0", "ghost")], attachments={})


def test_rejects_wrong_edge_count():
    with pytest.raises(TopologyError):
        TreeTopology(serializer_sites={"s0": "I", "s1": "F"},
                     edges=[], attachments={})


def test_rejects_cycle():
    with pytest.raises(TopologyError):
        TreeTopology(
            serializer_sites={"s0": "I", "s1": "F", "s2": "T", "s3": "S"},
            edges=[("s0", "s1"), ("s1", "s2"), ("s2", "s0")],
            attachments={})


def test_rejects_disconnected():
    with pytest.raises(TopologyError):
        TreeTopology(
            serializer_sites={"s0": "I", "s1": "F", "s2": "T", "s3": "S"},
            edges=[("s0", "s1"), ("s2", "s3"), ("s0", "s1")],
            attachments={})


def test_rejects_attachment_to_unknown_serializer():
    with pytest.raises(TopologyError):
        TreeTopology(serializer_sites={"s0": "I"}, edges=[],
                     attachments={"I": "ghost"})


def test_reachability():
    topo = chain_topology()
    assert topo.reachable_dcs("s0", "s1") == frozenset({"F", "T"})
    assert topo.reachable_dcs("s1", "s0") == frozenset({"I"})
    assert topo.reachable_dcs("s1", "s2") == frozenset({"T"})


def test_serializer_path():
    topo = chain_topology()
    assert topo.serializer_path("I", "T") == ["s0", "s1", "s2"]
    assert topo.serializer_path("T", "I") == ["s2", "s1", "s0"]
    assert topo.serializer_path("I", "F") == ["s0", "s1"]


def test_serializer_path_same_attachment():
    star = TreeTopology.star("I", {"I": "I", "F": "F"})
    assert star.serializer_path("I", "F") == ["S1"]


def test_path_latency_includes_links_and_delays():
    topo = chain_topology()
    dc_sites = {"I": "I", "F": "F", "T": "T"}
    # I->T: I-s0 (0) + s0-s1 (10 + delay 5) + s1-s2 (110) + s2-T (0)
    assert topo.path_latency("I", "T", lat, dc_sites) == pytest.approx(125.0)
    # T->I: no delay on the reverse direction
    assert topo.path_latency("T", "I", lat, dc_sites) == pytest.approx(120.0)


def test_delay_defaults_to_zero():
    topo = chain_topology()
    assert topo.delay("s1", "s2") == 0.0
    assert topo.delay("s0", "s1") == 5.0


def test_with_delays_copies():
    topo = chain_topology()
    updated = topo.with_delays({("s1", "s2"): 9.0})
    assert updated.delay("s1", "s2") == 9.0
    assert updated.delay("s0", "s1") == 0.0
    assert topo.delay("s0", "s1") == 5.0  # original untouched


def test_datacenters_and_serializers_sorted():
    topo = chain_topology()
    assert topo.datacenters == ["F", "I", "T"]
    assert topo.serializers == ["s0", "s1", "s2"]


@given(st.integers(min_value=2, max_value=8))
def test_random_chain_reachability_partitions_all_dcs(n):
    """For every directed edge, reachable sets partition the datacenters."""
    sites = {f"s{i}": f"site{i}" for i in range(n)}
    edges = [(f"s{i}", f"s{i+1}") for i in range(n - 1)]
    attachments = {f"dc{i}": f"s{i}" for i in range(n)}
    topo = TreeTopology(serializer_sites=sites, edges=edges,
                        attachments=attachments)
    for a, b in edges:
        forward = topo.reachable_dcs(a, b)
        backward = topo.reachable_dcs(b, a)
        assert forward | backward == set(attachments)
        assert not forward & backward
