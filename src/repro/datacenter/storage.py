"""Partitioned, linearizable per-datacenter key-value store.

The paper assumes each datacenter is linearizable (§2); inside our simulator
a datacenter is a single process, so its store is trivially linearizable.
The store is partitioned across storage servers (``RESPONSIBLE(key)`` in
Alg. 1 is a stable hash), and each partition owns a
:class:`~repro.sim.cpu.ServerCPU` so that operations on different partitions
proceed in parallel while operations on one partition serialize.

Values are represented by their size plus the label (= version id) of the
writing update; actual bytes are never materialized.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.label import Label
from repro.sim.cpu import ServerCPU
from repro.sim.engine import Simulator

__all__ = ["StoredValue", "Partition", "PartitionedStore", "responsible_partition"]


def responsible_partition(key: str, num_partitions: int) -> int:
    """Stable key -> partition mapping (same on every datacenter)."""
    return zlib.crc32(key.encode()) % num_partitions


@dataclass(slots=True)
class StoredValue:
    """Most recent version of a key at this datacenter."""

    label: Label
    value_size: int


class Partition:
    """One storage server's shard: a versioned map plus its CPU queue."""

    def __init__(self, sim: Simulator, index: int) -> None:
        self.index = index
        self.cpu = ServerCPU(sim)
        self._data: Dict[str, StoredValue] = {}
        self.writes_applied = 0

    def get(self, key: str) -> Optional[StoredValue]:
        return self._data.get(key)

    def put(self, key: str, value: StoredValue) -> bool:
        """Install *value* unless a newer version is already present.

        Last-writer-wins by label order (labels are totally ordered and the
        order respects causality), so concurrent replication streams
        converge.  Returns True if the store changed.
        """
        current = self._data.get(key)
        if current is not None and current.label >= value.label:
            return False
        self._data[key] = value
        self.writes_applied += 1
        return True

    def __len__(self) -> int:
        return len(self._data)


class PartitionedStore:
    """All partitions of one datacenter."""

    def __init__(self, sim: Simulator, num_partitions: int) -> None:
        if num_partitions <= 0:
            raise ValueError("need at least one partition")
        self.partitions: List[Partition] = [
            Partition(sim, i) for i in range(num_partitions)
        ]
        #: key -> partition, filled as keys are touched (every op asks)
        self._partition_of: Dict[str, Partition] = {}

    def partition_for(self, key: str) -> Partition:
        partition = self._partition_of.get(key)
        if partition is None:
            partition = self._partition_of[key] = self.partitions[
                responsible_partition(key, len(self.partitions))]
        return partition

    def get(self, key: str) -> Optional[StoredValue]:
        return self.partition_for(key).get(key)

    def put(self, key: str, value: StoredValue) -> bool:
        return self.partition_for(key).put(key, value)
