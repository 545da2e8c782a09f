"""Cluster runner: construction and short runs for every system of the
protocol table, and the table itself."""

import json
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from repro.baselines.gentlerain import GentleRainDatacenter, gentlerain_merge
from repro.core.replication import ReplicationMap
from repro.core.tree import TreeTopology
from repro.datacenter.datacenter import DatacenterParams
from repro.datacenter.overload import OverloadConfig
from repro.datacenter.script import ScriptedWorkload
from repro.harness import experiments
from repro.harness.runner import SYSTEMS, Cluster, ClusterConfig, Scale
from repro.harness.report import format_cdf_summary, format_table
from repro.protocols import PROTOCOLS, Deployment, Protocol
from repro.sim.clock import ClockFactory
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.rng import RngRegistry
from repro.verify.checker import ExecutionLog
from repro.workloads.synthetic import SyntheticWorkload


def small_config(system, **overrides):
    return ClusterConfig(system=system, sites=("I", "F", "T"),
                         clients_per_dc=2, **overrides)


def test_unknown_system_is_one_error_everywhere():
    from repro.analysis.mc.scenario import build_chain3
    with pytest.raises(ValueError) as from_config:
        ClusterConfig(system="paxos")
    with pytest.raises(ValueError) as from_catalog:
        build_chain3("paxos-chain3", horizon=10.0, system="paxos")
    assert str(from_config.value) == str(from_catalog.value)
    assert "'paxos'" in str(from_config.value)
    assert all(name in str(from_config.value) for name in SYSTEMS)


def test_auto_failover_needs_a_serializer_tree():
    assert ClusterConfig(system="saturn", auto_failover=True).auto_failover
    for system in SYSTEMS:
        if not PROTOCOLS[system].has_tree:
            with pytest.raises(ValueError, match="auto_failover"):
                ClusterConfig(system=system, auto_failover=True)


@pytest.mark.parametrize("setting", (
    dict(beacon_period=25.0),
    dict(overload=OverloadConfig(sink_buffer_cap=50, sink_credits=20,
                                 serializer_service_rate=2.0))),
    ids=("beacon_period", "overload"))
def test_tree_settings_need_a_serializer_tree(setting):
    """Beacons and the overload bounds act on the serializer tree: a
    system without one refuses them up front, naming the field, instead
    of ignoring them or failing in its datacenter factory."""
    (name,) = setting
    assert getattr(ClusterConfig(system="saturn", **setting), name)
    for system in SYSTEMS:
        if not PROTOCOLS[system].has_tree:
            with pytest.raises(ValueError, match=f"{name} needs a serializer tree"):
                ClusterConfig(system=system, **setting)


def test_failure_detector_needs_beacons():
    """Beacons are the detector's only evidence: a detector with nothing
    to listen for would degrade every healthy datacenter."""
    detector = dict(beacon_timeout=20.0)
    assert ClusterConfig(system="saturn", beacon_period=5.0,
                         dc_params=detector).beacon_period == 5.0
    with pytest.raises(ValueError, match="beacon_period"):
        ClusterConfig(system="saturn", dc_params=detector)
    with pytest.raises(ValueError, match="beacon_period"):
        ClusterConfig(system="saturn", auto_failover=True,
                      dc_params=detector)


@pytest.mark.parametrize("knob", ("sink_credits", "sink_buffer_cap"))
def test_overload_knobs_are_not_datacenter_params(knob):
    """Sink credits come back only from a serializer with a service rate,
    which ``OverloadConfig`` checks; set through ``dc_params`` alone they
    would wedge the sink on its first batch."""
    with pytest.raises(ValueError, match=r"overload=OverloadConfig\(\.\.\.\)"):
        ClusterConfig(system="saturn", dc_params={knob: 20})


def test_num_partitions_is_not_a_datacenter_param():
    """``num_partitions`` is a field every factory is called with; in
    ``dc_params`` too it would reach the factory twice."""
    with pytest.raises(ValueError, match="pass num_partitions="):
        ClusterConfig(system="saturn", dc_params={"num_partitions": 4})


def test_cluster_config_repeats_no_datacenter_param():
    """Per-datacenter tuning goes through ``dc_params``; only
    ``num_partitions`` (which the baselines take too) is a field."""
    config_fields = {f.name for f in fields(ClusterConfig)}
    assert config_fields & {f.name for f in fields(DatacenterParams)} \
        == {"num_partitions"}
    assert len(config_fields) <= 15


def test_dc_params_reach_the_datacenter_factory():
    saturn = Cluster(small_config(
        "saturn", dc_params=dict(sink_batch_period=3.0, transition_timeout=9.0)),
        SyntheticWorkload())
    for dc in saturn.datacenters.values():
        assert dc.params.sink_batch_period == 3.0
        assert dc.params.transition_timeout == 9.0
    eunomia = Cluster(small_config("eunomia",
                                   dc_params=dict(batch_period=7.0)),
                      SyntheticWorkload())
    for dc in eunomia.datacenters.values():
        assert dc.sequencer.batch_period == 7.0
    with pytest.raises(ValueError, match="'sink_batch_period'"):
        Cluster(small_config("gentlerain",
                             dc_params=dict(sink_batch_period=3.0)),
                SyntheticWorkload())


@pytest.mark.parametrize("system, key", [
    ("saturn", "sink_batch_perod"),
    ("gentlerain", "batch_period"),      # Eunomia's, not GentleRain's
    ("cops", "prune_on_write"),          # the two table entries fix it
    ("cops-noprune", "prune_on_write"),
])
def test_a_key_the_factory_does_not_take_fails_in_the_config(system, key):
    """A misspelt or foreign datacenter parameter fails when the config is
    made, naming the key and the system, not later inside a factory."""
    with pytest.raises(ValueError, match=f"{system!r} datacenters take no "
                                         f"parameter {key!r}"):
        ClusterConfig(system=system, dc_params={key: 5.0})


#: the default of every keyword a datacenter factory takes
FACTORY_DEFAULTS = {**{f.name: f.default for f in fields(DatacenterParams)
                       if f.default is not MISSING},
                    "batch_period": 2.0}


@pytest.mark.parametrize("system", SYSTEMS)
def test_every_declared_key_is_one_the_factory_takes(system):
    """``Protocol.params`` restates each factory's keywords (a baseline
    chains ``*args, **kwargs``), so each declared key must build a
    datacenter: the table cannot keep a keyword its factory lost."""
    protocol = PROTOCOLS[system]
    sim = Simulator()
    clocks = ClockFactory(sim, RngRegistry(seed=1))
    for key in sorted(protocol.params):
        site = Deployment(sim, Network(sim), protocol, ReplicationMap(["I"]),
                          ["I"], clocks.create, None,
                          {key: FACTORY_DEFAULTS[key]})
        assert list(site.datacenters) == ["I"]


def test_warmup_must_precede_duration():
    cluster = Cluster(small_config("eventual"), SyntheticWorkload())
    with pytest.raises(ValueError):
        cluster.run(duration=100.0, warmup=100.0)


@pytest.mark.parametrize("system", SYSTEMS)
def test_every_system_builds_and_completes_ops(system):
    workload = SyntheticWorkload(correlation="full")
    cluster = Cluster(small_config(system), workload)
    results = cluster.run(duration=300.0, warmup=50.0)
    assert results.ops_completed > 0
    assert results.throughput > 0
    assert results.duration == 300.0
    protocol = PROTOCOLS[system]
    assert cluster.protocol is protocol and protocol.description
    stamps = [client.stamp for client in cluster.clients if client.stamp]
    assert stamps and protocol.merge(stamps[0], stamps[-1]) is not None
    assert sum(map(protocol.metadata_bytes,
                   cluster.datacenters.values())) >= 0
    assert (cluster.service is not None) == protocol.has_tree
    assert (cluster.manager is not None) == protocol.has_tree


def test_a_protocol_registered_here_runs_and_fills_a_five_way_row(
        monkeypatch):
    """Adding a system is one table entry: nothing in runner.py or
    experiments.py names it."""
    class ToyDatacenter(GentleRainDatacenter):
        VISIBILITY_MODE = "toy"

    def factory(sim, site, *args, **kwargs):
        return ToyDatacenter(sim, site, site, *args, **kwargs)

    monkeypatch.setitem(PROTOCOLS, "toy", Protocol(
        "toy", "GentleRain under another name", factory, gentlerain_merge,
        metadata_bytes=lambda dc: 3 * dc.updates_applied))
    monkeypatch.setattr(experiments, "FIVE_WAY_SYSTEMS", ("toy",))
    scale = Scale(duration=300.0, warmup=50.0, clients_per_dc=2)
    result = experiments.run_experiment(
        "five-way", scale, sites=("I", "F", "T"), pairs=(("I", "F"),))
    (row,) = result["rows"]
    assert row["system"] == "toy" and row["ops_completed"] > 0
    assert row["visible_updates"] > 0
    assert row["metadata_bytes_per_update"] > 0
    golden = json.loads((Path(__file__).parent / "golden"
                         / "five_way_smoke.json").read_text())
    assert set(row) == {"system", *golden["saturn"]}
    assert list(result["series"]) == ["toy"]


def test_a_workload_may_supply_its_own_client_roster():
    clients = [
        {"id": "w", "dc": "F", "script": [{"op": "update", "key": "gF.0:k"}]},
        {"id": "r", "dc": "I", "script": [
            {"op": "poll", "key": "gF.0:k", "cap": 50}]},
    ]
    replication = ReplicationMap(["I", "F", "T"])
    replication.set_group("gF.0", ["I", "F"])
    workload = ScriptedWorkload(clients, stagger=40.0)
    assert [(client_id, site, start_at) for client_id, site, _, start_at
            in workload.client_roster()] == [("w", "F", 0.0), ("r", "I", 40.0)]
    cluster = Cluster(small_config("saturn", replication=replication),
                      workload)
    cluster.attach_execution_log(ExecutionLog(replication))
    assert [(c.client_id, c.home_dc) for c in cluster.clients] \
        == [("w", "F"), ("r", "I")]
    cluster.start()
    cluster.sim.run(until=39.0)
    assert cluster.clients[0].ops_completed == 1
    assert not cluster.clients[1].running  # its start offset is 40 ms
    cluster.sim.run(until=300.0)
    reader = cluster.clients[1]
    assert reader.observed("gF.0:k") is not None
    assert reader.ops_completed == 1  # visible at I since before t=40
    assert not any(client.running for client in cluster.clients)


def test_saturn_default_topology_is_star_on_first_site():
    cluster = Cluster(small_config("saturn"), SyntheticWorkload())
    topology = cluster.service.topology()
    assert set(topology.serializer_sites.values()) == {"I"}


def test_saturn_custom_topology_used():
    topo = TreeTopology.star("T", {"I": "I", "F": "F", "T": "T"})
    cluster = Cluster(small_config("saturn", saturn_topology=topo),
                      SyntheticWorkload())
    assert set(cluster.service.topology().serializer_sites.values()) == {"T"}


def test_replication_override():
    replication = ReplicationMap(["I", "F", "T"])
    for site in ("I", "F", "T"):
        replication.set_group(f"g{site}.0", [site])
    cluster = Cluster(small_config("eventual", replication=replication),
                      SyntheticWorkload())
    assert cluster.replication is replication


def test_clients_placed_at_their_sites():
    cluster = Cluster(small_config("eventual"), SyntheticWorkload())
    assert len(cluster.clients) == 6
    network = cluster.network
    for client in cluster.clients:
        # a client's link to each datacenter costs its home site's latency
        for site, dc in cluster.datacenters.items():
            assert (network.base_latency(client.name, dc.name)
                    == network.latency_model.get(client.home_dc, site))


def test_visibility_recorded_during_run():
    workload = SyntheticWorkload(correlation="full", read_ratio=0.5)
    cluster = Cluster(small_config("eventual"), workload)
    results = cluster.run(duration=300.0, warmup=50.0)
    assert results.visibility.count() > 0
    assert results.visibility.mean() > 0


# -- report helpers --------------------------------------------------------------

def test_format_table():
    text = format_table(["x", "value"], [["a", 1.234], ["bb", 10.0]],
                        title="T")
    assert "T" in text
    assert "1.2" in text
    assert "bb" in text


def test_format_cdf_summary():
    text = format_cdf_summary("pair", [1.0, 2.0, 3.0])
    assert "mean=2.0ms" in text
    assert "p90" in text
    assert format_cdf_summary("empty", []) == "empty: (no samples)"
