"""Optimal visibility time and the Weighted Minimal Mismatch objective
(Definitions 1 and 2, §5.2/§5.4).

For a pair of datacenters (i, j) the *optimal* label propagation latency is
the bulk-data transfer latency Δ(i, j): delivering the label earlier creates
premature false dependencies, delivering it later sacrifices data freshness.
Given a serializer topology, the achieved metadata-path latency is
ΛM(i, j); the objective sums the weighted absolute mismatch over all pairs.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple

from repro.core.replication import ReplicationMap
from repro.core.tree import TreeTopology

__all__ = [
    "optimal_visibility_time",
    "pair_weights_from_replication",
    "weighted_mismatch",
    "weighted_pairs",
]


def optimal_visibility_time(created_at: float, origin: str, replica: str,
                            latency: Callable[[str, str], float],
                            dependency_times: Iterable[float] = ()) -> float:
    """Definition 1: earliest expected time update *i* can apply at
    *replica* — its own arrival time or the latest of its causal past's
    optimal visibility times, whichever is later."""
    own = created_at + latency(origin, replica)
    latest_dep = max(dependency_times, default=float("-inf"))
    return max(own, latest_dep)


def pair_weights_from_replication(replication: ReplicationMap) -> Dict[Tuple[str, str], float]:
    """Weights c_ij proportional to the number of groups two datacenters
    share — paths carrying more replicated data matter more (§5.4)."""
    weights: Dict[Tuple[str, str], float] = {}
    datacenters = replication.datacenters
    groups = replication.groups()
    for i in datacenters:
        for j in datacenters:
            if i == j:
                continue
            if groups:
                shared = sum(1 for replicas in groups.values()
                             if i in replicas and j in replicas)
            else:
                shared = 1
            weights[(i, j)] = float(shared)
    return weights


def weighted_mismatch(topology: TreeTopology,
                      dc_sites: Dict[str, str],
                      latency: Callable[[str, str], float],
                      weights: Optional[Dict[Tuple[str, str], float]] = None,
                      bulk_latency: Optional[Callable[[str, str], float]] = None) -> float:
    """Definition 2: Σ c_ij · |ΛM(i, j) − Δ(i, j)| over ordered pairs.

    *latency* prices the metadata links (serializer hops); *bulk_latency*
    is the bulk-data transfer delay Δ (defaults to the same function, but
    the paper notes bulk data is not necessarily sent through the shortest
    path, in which case Saturn adds artificial delays)."""
    if bulk_latency is None:
        bulk_latency = latency
    total = 0.0
    for i, j, weight in weighted_pairs(topology, weights):
        achieved = topology.path_latency(i, j, latency, dc_sites)
        optimal = bulk_latency(dc_sites[i], dc_sites[j])
        total += weight * abs(achieved - optimal)
    return total


def weighted_pairs(topology: TreeTopology,
                   weights: Optional[Dict[Tuple[str, str], float]],
                   ) -> Iterator[Tuple[str, str, float]]:
    """(i, j, c_ij) for every ordered pair of the tree's datacenters that
    carries weight (all of them at weight 1 when *weights* is None)."""
    datacenters = topology.datacenters
    for i in datacenters:
        for j in datacenters:
            weight = 1.0 if weights is None else weights.get((i, j), 0.0)
            if i != j and weight != 0.0:
                yield i, j, weight
