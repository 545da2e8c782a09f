"""Unit tests for the partitioned per-datacenter store."""

import pytest
from hypothesis import given, strategies as st

from repro.core.label import Label, LabelType
from repro.datacenter.storage import (PartitionedStore, StoredValue,
                                      responsible_partition)
from repro.sim.engine import Simulator


def label(ts, src="I/g0"):
    return Label(LabelType.UPDATE, src=src, ts=ts, target="k", origin_dc="I")


def test_requires_partitions(sim):
    with pytest.raises(ValueError):
        PartitionedStore(sim, 0)


def test_put_get_roundtrip(sim):
    store = PartitionedStore(sim, 4)
    value = StoredValue(label=label(1.0), value_size=16)
    assert store.put("k", value)
    assert store.get("k") is value


def test_get_missing_returns_none(sim):
    store = PartitionedStore(sim, 2)
    assert store.get("nope") is None


def test_last_writer_wins_keeps_newest(sim):
    store = PartitionedStore(sim, 2)
    newer = StoredValue(label=label(2.0), value_size=1)
    older = StoredValue(label=label(1.0), value_size=1)
    assert store.put("k", newer)
    assert not store.put("k", older)  # stale write rejected
    assert store.get("k") is newer


def test_lww_tie_broken_by_source(sim):
    store = PartitionedStore(sim, 2)
    a = StoredValue(label=label(1.0, src="A/g0"), value_size=1)
    b = StoredValue(label=label(1.0, src="B/g0"), value_size=1)
    store.put("k", a)
    assert store.put("k", b)  # B/g0 > A/g0 at equal ts
    assert store.get("k") is b


def test_responsible_partition_stable_and_bounded():
    for key in ("a", "b", "g1:0", "zzz"):
        p = responsible_partition(key, 8)
        assert 0 <= p < 8
        assert p == responsible_partition(key, 8)


def test_partition_for_uses_hash(sim):
    store = PartitionedStore(sim, 4)
    partition = store.partition_for("k")
    assert partition is store.partitions[responsible_partition("k", 4)]


def test_total_keys_and_write_counter(sim):
    store = PartitionedStore(sim, 4)
    for i in range(10):
        store.put(f"k{i}", StoredValue(label=label(float(i)), value_size=1))
    assert sum(p.writes_applied for p in store.partitions) == 10


@given(st.lists(st.text(max_size=8), max_size=40), st.integers(1, 8))
def test_partition_for_memo_equals_responsible_partition(keys, partitions):
    store = PartitionedStore(Simulator(), partitions)
    for key in keys + keys[::-1]:  # the second pass answers from the memo
        assert store.partition_for(key) is store.partitions[
            responsible_partition(key, partitions)]
