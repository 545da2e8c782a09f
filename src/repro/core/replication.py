"""Replication map: which datacenters replicate which keys.

Saturn supports *genuine* partial replication: labels for an item only
travel to datacenters replicating that item.  Both the gears (to ship
payloads) and the serializer tree (to route labels) consult this map.

Keys are organised into *groups* (the unit of placement); every key in a
group shares the group's replica set.  Group membership is encoded in the
key name (``g<group>:<suffix>``) so lookup is O(1) without a per-key table.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

__all__ = ["ReplicationMap"]


class ReplicationMap:
    """Mapping from keys (via groups) to replica sets of datacenters."""

    def __init__(self, datacenters: Sequence[str]) -> None:
        if not datacenters:
            raise ValueError("need at least one datacenter")
        self.datacenters: List[str] = list(datacenters)
        self._group_replicas: Dict[str, FrozenSet[str]] = {}
        self._default: FrozenSet[str] = frozenset(datacenters)
        #: memo for :func:`repro.core.serializer.interest_of` — every
        #: serializer a label passes through needs the same answer, so the
        #: map owns one shared cache; invalidated whenever placement changes.
        self.interest_cache: Dict[tuple, FrozenSet[str]] = {}

    # -- construction --------------------------------------------------------

    def set_group(self, group: str, replicas: Iterable[str]) -> None:
        replica_set = frozenset(replicas)
        unknown = replica_set - self._default
        if unknown:
            raise ValueError(f"unknown datacenters in replica set: {sorted(unknown)}")
        if not replica_set:
            raise ValueError(f"group {group!r} must have at least one replica")
        self._group_replicas[group] = replica_set
        self.interest_cache.clear()

    @classmethod
    def full(cls, datacenters: Sequence[str]) -> "ReplicationMap":
        """Full geo-replication: every key everywhere."""
        return cls(datacenters)

    # -- lookup ---------------------------------------------------------------

    @staticmethod
    def group_of(key: str) -> Optional[str]:
        """Extract the group from a ``g<group>:<suffix>`` key name."""
        if key.startswith("g") and ":" in key:
            return key.split(":", 1)[0]
        return None

    def replicas_of_group(self, group: str) -> FrozenSet[str]:
        return self._group_replicas.get(group, self._default)

    def replicas(self, key: str) -> FrozenSet[str]:
        """Replica set for *key* (all datacenters if ungrouped/unknown)."""
        group = self.group_of(key)
        if group is None:
            return self._default
        return self.replicas_of_group(group)

    def is_replicated_at(self, key: str, dc: str) -> bool:
        return dc in self.replicas(key)

    def groups(self) -> Dict[str, FrozenSet[str]]:
        return dict(self._group_replicas)

    def groups_at(self, dc: str) -> List[str]:
        """Groups replicated at *dc* (sorted for determinism)."""
        return sorted(g for g, r in self._group_replicas.items() if dc in r)

    def average_replication_degree(self) -> float:
        if not self._group_replicas:
            return float(len(self.datacenters))
        total = sum(len(r) for r in self._group_replicas.values())
        return total / len(self._group_replicas)
