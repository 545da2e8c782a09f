"""Synthetic workload generator (§7.3.2).

Reproduces the paper's dynamic-workload knobs, with the paper's defaults in
parentheses: value size (2 B), read:write ratio (9:1), correlation among
datacenters (exponential), and percentage of remote reads (0%).

Each client belongs to a preferred datacenter and issues, with zero think
time: local reads, local updates, or remote reads (the §4.4 migration
dance) of keys not replicated at its datacenter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.replication import ReplicationMap
from repro.sim.rng import RngRegistry
from repro.workloads.correlation import build_replication
from repro.workloads.ops import ReadOp, RemoteReadOp, UpdateOp

__all__ = ["SyntheticWorkload"]

#: skewed access: with probability ``HOT_FRACTION`` an operation touches
#: one of the group's first ``HOT_KEYS`` keys (social workloads are
#: zipfian; hot keys keep client causal pasts fresh)
HOT_FRACTION = 0.5
HOT_KEYS = 4


@dataclass
class SyntheticWorkload:
    """Parameterized synthetic workload.

    ``remote_read_fraction`` is the fraction of *reads* that target data not
    replicated at the client's preferred datacenter (the paper varies it
    from 0% to 40%).
    """

    value_size: int = 2
    read_ratio: float = 0.9
    correlation: str = "exponential"
    remote_read_fraction: float = 0.0
    groups_per_dc: int = 4
    keys_per_group: int = 64
    degree: Optional[int] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_ratio <= 1.0:
            raise ValueError("read_ratio must be in [0, 1]")
        if not 0.0 <= self.remote_read_fraction <= 1.0:
            raise ValueError("remote_read_fraction must be in [0, 1]")
        if self.value_size < 0:
            raise ValueError("value_size must be non-negative")

    # ------------------------------------------------------------------

    def replication_map(self, datacenters: Sequence[str],
                        latency: Callable[[str, str], float],
                        rng: RngRegistry) -> ReplicationMap:
        return build_replication(datacenters, self.correlation, latency, rng,
                                 groups_per_dc=self.groups_per_dc,
                                 degree=self.degree)

    # ------------------------------------------------------------------

    def client_generator(self, dc_name: str, replication: ReplicationMap,
                         rng: RngRegistry,
                         latency: Callable[[str, str], float],
                         stream_name: str) -> Callable[[object], object]:
        """Build the per-client ``workload(client) -> op`` closure."""
        stream = rng.stream(stream_name)
        local_groups = replication.groups_at(dc_name)
        if not local_groups:
            raise ValueError(f"no groups replicated at {dc_name}")
        remote_groups = [g for g in sorted(replication.groups())
                         if dc_name not in replication.replicas_of_group(g)]
        # interest is distance-biased: clients mostly reach for data whose
        # nearest replica is close (1/d^2 weighting), like real read
        # traffic; this also matches the §5.1 migration example (dc3->dc4)
        remote_weights = []
        for group in remote_groups:
            nearest = min(latency(dc_name, dc)
                          for dc in replication.replicas_of_group(group))
            remote_weights.append(1.0 / (1.0 + nearest) ** 2)
        total_weight = sum(remote_weights)

        def _pick_remote_group() -> str:
            roll = stream.random() * total_weight
            cumulative = 0.0
            for group, weight in zip(remote_groups, remote_weights):
                cumulative += weight
                if roll < cumulative:
                    return group
            return remote_groups[-1]

        def _key(group: str) -> str:
            if stream.random() < HOT_FRACTION:
                index = stream.randrange(min(HOT_KEYS, self.keys_per_group))
            else:
                index = stream.randrange(self.keys_per_group)
            return f"{group}:{index}"

        def _nearest_replica(group: str) -> str:
            replicas = replication.replicas_of_group(group)
            return min(replicas, key=lambda dc: (latency(dc_name, dc), dc))

        def _next(client: object) -> object:
            if stream.random() < self.read_ratio:
                if (remote_groups
                        and stream.random() < self.remote_read_fraction):
                    group = _pick_remote_group()
                    return RemoteReadOp(key=_key(group),
                                        target_dc=_nearest_replica(group))
                return ReadOp(key=_key(stream.choice(local_groups)))
            return UpdateOp(key=_key(stream.choice(local_groups)),
                            value_size=self.value_size)

        return _next
