"""Datacenter process tests: dispatch, heartbeats, outage detection."""

import pytest

from repro.baselines.base import StabilizedDatacenter
from repro.baselines.eunomia import EunomiaDatacenter, EunomiaSequencer
from repro.baselines.explicit import ExplicitDatacenter
from repro.baselines.okapi import OkapiDatacenter
from repro.core.serializer import Serializer
from repro.datacenter.client import ClientProcess
from repro.datacenter.datacenter import (DatacenterParams, SaturnDatacenter,
                                         dc_process_name)

from conftest import MiniCluster


def test_dc_process_name():
    assert dc_process_name("I") == "dc:I"


def test_params_reject_unknown_consistency():
    with pytest.raises(ValueError):
        DatacenterParams(name="I", site="I", consistency="strong")


def test_bulk_heartbeats_advance_remote_stability():
    cluster = MiniCluster(consistency="timestamp", bulk_heartbeat_period=5.0)
    cluster.start()
    cluster.sim.run(until=150.0)
    proxy = cluster.dcs["F"].proxy
    assert proxy.seen_bulk_ts.get("I") is not None
    assert proxy.seen_bulk_ts.get("T") is not None
    assert proxy._ts_watermark > float("-inf")


def test_eventual_mode_sends_no_heartbeats_or_labels():
    cluster = MiniCluster(consistency="eventual")
    cluster.start()
    cluster.sim.run(until=50.0)
    proxy = cluster.dcs["F"].proxy
    assert proxy.seen_bulk_ts == {}


def test_unexpected_message_raises(mini_cluster):
    with pytest.raises(TypeError):
        mini_cluster.dcs["I"].receive("nobody", object())


@pytest.mark.parametrize("actor", [
    SaturnDatacenter, Serializer, ClientProcess, StabilizedDatacenter,
    EunomiaDatacenter, EunomiaSequencer, OkapiDatacenter, ExplicitDatacenter,
], ids=lambda cls: cls.__name__)
def test_every_actor_raises_on_an_unknown_message(actor):
    # Process.receive consults only the class's _HANDLERS table, so an
    # uninitialised instance is enough
    process = actor.__new__(actor)
    with pytest.raises(TypeError, match="no handler"):
        process.receive("nobody", object())


def test_cost_helpers_skip_metadata_in_eventual_mode():
    saturn = MiniCluster(consistency="saturn")
    eventual = MiniCluster(consistency="eventual")
    assert (eventual.dcs["I"].read_cost(8)
            < saturn.dcs["I"].read_cost(8))
    assert (eventual.dcs["I"].write_cost(8)
            < saturn.dcs["I"].write_cost(8))


def test_remote_apply_cheaper_than_local_write(mini_cluster):
    dc = mini_cluster.dcs["I"]
    assert dc.remote_apply_cost(8) < dc.write_cost(8)


# (the two test ids below predate the removal of the pull-based ping
# detector; the outage detector they exercise is the beacon one)

def test_ping_detector_triggers_fallback_on_outage():
    cluster = MiniCluster(beacon_period=25.0, beacon_timeout=100.0)
    cluster.start()
    cluster.sim.run(until=50.0)
    assert not cluster.dcs["I"].saturn_down
    cluster.service.fail_tree()
    cluster.sim.run(until=700.0)  # beacon_timeout + stabilization_wait
    for dc in cluster.dcs.values():
        assert dc.saturn_down
        assert dc.proxy._in_timestamp_mode()


def test_ping_detector_quiet_while_saturn_healthy():
    cluster = MiniCluster(beacon_period=25.0, beacon_timeout=100.0)
    cluster.start()
    cluster.sim.run(until=300.0)
    assert all(not dc.saturn_down for dc in cluster.dcs.values())


def test_updates_still_flow_after_outage_via_timestamp_order():
    """Saturn down -> availability preserved through the ts fallback."""
    cluster = MiniCluster(beacon_period=25.0, beacon_timeout=100.0,
                          bulk_heartbeat_period=5.0)
    cluster.start()
    cluster.service.fail_tree()
    cluster.sim.run(until=100.0)
    dc = cluster.dcs["I"]
    partition = dc.store.partition_for("k")
    dc.gears[partition.index].update("k", 8, None)
    cluster.sim.run(until=600.0)
    assert cluster.dcs["F"].store.get("k") is not None
    assert cluster.dcs["T"].store.get("k") is not None
