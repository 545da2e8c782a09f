"""ClusterSpec: chain construction, JSON round trip, derived views."""

import json

import pytest

from repro.net.spec import (POLL_CAP, ClusterSpec, chain_smoke_spec,
                            write_cluster)


def test_chain3_reuses_the_mc_scenario_shape():
    spec = chain_smoke_spec(3)
    assert spec.sites == ["I", "F", "T"]
    assert spec.groups == {"g0": ["I", "F", "T"], "g1": ["I", "F"]}
    assert spec.edges == [("sI", "sF"), ("sF", "sT")]
    assert spec.attachments == {"I": "sI", "F": "sF", "T": "sT"}
    assert spec.scripted_updates() == [
        ("I", "g0:a"), ("I", "g0:b"), ("I", "g1:p"), ("F", "g0:y")]


def test_larger_chains_extend_site_and_key_names():
    spec = chain_smoke_spec(5)
    assert spec.sites == ["I", "F", "T", "D3", "D4"]
    updates = [key for _, key in spec.scripted_updates()]
    assert updates == ["g0:a", "g0:b", "g1:p", "g0:y", "g0:y2", "g0:y3"]
    # still a chain: each relay waits for its predecessor's key
    relays = [client["script"] for client in spec.clients[1:-1]]
    assert [(script[0]["key"], script[1]["key"]) for script in relays] == [
        ("g0:b", "g0:y"), ("g0:y", "g0:y2"), ("g0:y2", "g0:y3")]


def test_too_small_chain_is_rejected():
    with pytest.raises(ValueError):
        chain_smoke_spec(1)


def test_json_round_trip_is_lossless():
    for spec in (chain_smoke_spec(4), chain_smoke_spec(4, "eunomia")):
        clone = ClusterSpec.from_json(
            json.loads(json.dumps(spec.to_json())))
        assert clone == spec


def test_unknown_system_is_rejected():
    with pytest.raises(ValueError, match="unknown system"):
        chain_smoke_spec(3, "paxos")


def test_only_a_tree_system_gets_serializer_nodes_and_a_sink_cadence():
    """The mc chain3 rule: the sink cadence goes with the tree."""
    saturn, cure = chain_smoke_spec(3), chain_smoke_spec(3, "cure")
    assert saturn.params["sink_batch_period"] == 5.0
    assert cure.params == {"num_partitions": 2}
    assert sorted(cure.nodes()) == ["dc-F", "dc-I", "dc-T"]
    assert {op.get("cap") for client in cure.clients
            for op in client["script"]} == {None, POLL_CAP}


def test_derived_topology_and_replication_views():
    spec = chain_smoke_spec(3)
    topology = spec.topology()
    assert topology.attachments["T"] == "sT"
    replication = spec.replication()
    assert replication.replicas("g1:p") == frozenset({"I", "F"})
    assert replication.replicas("g0:a") == frozenset({"I", "F", "T"})


def test_nodes_roster_covers_every_site_and_serializer():
    roster = chain_smoke_spec(3).nodes()
    assert sorted(roster) == ["dc-F", "dc-I", "dc-T",
                              "ser-sF", "ser-sI", "ser-sT"]
    assert roster["dc-I"]["processes"] == ["dc:I", "client:writer-I"]
    assert roster["ser-sI"]["processes"] == ["ser:e0:sI"]


def test_write_cluster_lays_out_per_node_config_dirs(tmp_path):
    spec = chain_smoke_spec(3)
    node_dirs = write_cluster(spec, tmp_path, "127.0.0.1", 4000,
                              deadline_s=30.0)
    assert sorted(node_dirs) == sorted(spec.nodes())
    reloaded = ClusterSpec.load(tmp_path / "spec.json")
    assert reloaded == spec
    config = json.loads(
        (node_dirs["dc-T"] / "node.json").read_text(encoding="utf-8"))
    assert config["role"] == "dc" and config["target"] == "T"
    assert config["directory"] == ["127.0.0.1", 4000]
    assert config["deadline_s"] == 30.0
    # the spec pointer resolves from inside the node dir
    assert (node_dirs["dc-T"] / config["spec"]).resolve().exists()
