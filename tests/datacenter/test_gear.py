"""Unit tests for gears: label generation and payload fan-out (Alg. 2)."""

import pytest

from repro.core.label import Label, LabelType
from repro.core.replication import ReplicationMap
from repro.datacenter.messages import ClientRead, RemotePayload

from conftest import MiniCluster


def test_update_generates_monotonic_labels():
    cluster = MiniCluster()
    gear = cluster.dcs["I"].gears[0]
    labels = [gear.update("k", 8, None) for _ in range(10)]
    stamps = [l.ts for l in labels]
    assert stamps == sorted(stamps)
    assert len(set(stamps)) == len(stamps)


def test_update_label_exceeds_client_causal_past():
    cluster = MiniCluster()
    gear = cluster.dcs["I"].gears[0]
    past = Label(LabelType.UPDATE, src="F/g0", ts=1e6, target="k",
                 origin_dc="F")
    label = gear.update("k", 8, past)
    assert label.ts > past.ts


def test_update_writes_local_store():
    cluster = MiniCluster()
    dc = cluster.dcs["I"]
    label = dc.gears[dc.store.partition_for("k").index].update("k", 32, None)
    stored = dc.store.get("k")
    assert stored is not None
    assert stored.label == label
    assert stored.value_size == 32


def test_update_ships_payload_to_replicas_only():
    replication = ReplicationMap(["I", "F", "T"])
    replication.set_group("gx", ["I", "F"])
    cluster = MiniCluster(replication=replication)
    cluster.start()  # the sink must flush the label for F's proxy to apply
    dc = cluster.dcs["I"]
    partition = dc.store.partition_for("gx:0")
    dc.gears[partition.index].update("gx:0", 8, None)
    cluster.sim.run(until=50.0)
    assert cluster.dcs["F"].store.get("gx:0") is not None
    assert cluster.dcs["T"].store.get("gx:0") is None


def test_update_label_identifies_origin_and_key():
    cluster = MiniCluster()
    gear = cluster.dcs["T"].gears[0]
    label = gear.update("mykey", 8, None)
    assert label.origin_dc == "T"
    assert label.target == "mykey"
    assert label.src.startswith("T/g")


def test_migration_label_targets_datacenter():
    cluster = MiniCluster()
    gear = cluster.dcs["I"].gears[0]
    label = gear.migration("T", None)
    assert label.type is LabelType.MIGRATION
    assert label.target == "T"
    assert label.origin_dc == "I"


def test_migration_label_exceeds_client_past():
    cluster = MiniCluster()
    gear = cluster.dcs["I"].gears[0]
    past = gear.update("k", 8, None)
    migration = gear.migration("T", past)
    assert migration.ts > past.ts


def test_read_returns_latest_version():
    """A read (Alg. 2, READ) is the datacenter skeleton's: it replies with
    the newest version a gear wrote."""
    cluster = MiniCluster()
    dc = cluster.dcs["I"]
    partition = dc.store.partition_for("k")
    gear = dc.gears[partition.index]
    gear.update("k", 8, None)
    newest = gear.update("k", 9, None)
    replies = []
    dc.send = lambda client, message: replies.append(message)
    dc.receive("client:c", ClientRead("c", "k"))
    dc.receive("client:c", ClientRead("c", "missing"))
    cluster.sim.run(until=5.0)
    assert replies[0].label == newest and replies[0].value_size == 9
    assert replies[0].version == (newest.ts, newest.src)
    assert replies[1].label is None
