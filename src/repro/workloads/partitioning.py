"""Social-graph partitioning with bounded replication (§7.4).

The paper distributes the Facebook dataset across datacenters with the
algorithm of Pujol et al. [46] (SPAR), "augmented to limit the maximum
number of replicas each partition may have".  This module implements the
same idea:

1. **Master placement** — users are assigned to datacenters greedily (in
   decreasing-degree order) so that each user lands where most of their
   already-placed friends are, under a balance cap.  This maximizes the
   locality of a user and her friends, minimizing remote reads.
2. **Bounded replication** — a user's data is replicated at the master
   datacenters of her friends (so friend browsing is local), capped at
   ``max_replicas`` (keeping the datacenters hosting most friends, with
   geographically nearest datacenters breaking ties) and padded to
   ``min_replicas``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Set

from repro.core.replication import ReplicationMap

__all__ = ["assign_masters", "build_social_replication", "user_group"]


def user_group(user: int) -> str:
    """Replication-map group name for a user's data."""
    return f"gu{user}"


def assign_masters(adjacency: Dict[int, Set[int]], datacenters: Sequence[str],
                   balance_slack: float = 1.10) -> Dict[int, str]:
    """Greedy friend-locality master placement with a balance cap."""
    if not datacenters:
        raise ValueError("need at least one datacenter")
    capacity = int(len(adjacency) / len(datacenters) * balance_slack) + 1
    load = {dc: 0 for dc in datacenters}
    masters: Dict[int, str] = {}
    # high-degree users first: they anchor their communities
    order = sorted(adjacency, key=lambda u: (-len(adjacency[u]), u))
    for user in order:
        votes: Dict[str, int] = {}
        for friend in adjacency[user]:
            master = masters.get(friend)
            if master is not None:
                votes[master] = votes.get(master, 0) + 1
        # candidates under the balance cap, preferring friend-heavy ones;
        # ties (and friendless users) go to the least-loaded datacenter
        best = None
        best_key = None
        for dc in datacenters:
            dc_load = load[dc]
            if dc_load >= capacity:
                continue
            key = (-votes.get(dc, 0), dc_load, dc)
            if best_key is None or key < best_key:
                best_key = key
                best = dc
        if best is None:  # every datacenter at cap: pick least loaded
            best = min(load, key=lambda dc: (load[dc], dc))
        masters[user] = best
        load[best] += 1
    return masters


def build_social_replication(adjacency: Dict[int, Set[int]],
                             masters: Dict[int, str],
                             datacenters: Sequence[str],
                             latency: Callable[[str, str], float],
                             min_replicas: int = 2,
                             max_replicas: int = 5) -> ReplicationMap:
    """Replica sets per user group: master + friends' masters, bounded."""
    if min_replicas < 1:
        raise ValueError("min_replicas must be >= 1")
    if max_replicas < min_replicas:
        raise ValueError("max_replicas must be >= min_replicas")
    max_replicas = min(max_replicas, len(datacenters))
    replication = ReplicationMap(datacenters)
    # per home: every datacenter nearest-first, name breaking latency ties;
    # a site's position in that list is its tie-break rank
    nearest = {home: sorted(datacenters, key=lambda d: (latency(home, d), d))
               for home in datacenters}
    rank = {home: {dc: i for i, dc in enumerate(sites)}
            for home, sites in nearest.items()}
    for user, friends in adjacency.items():
        home = masters[user]
        votes: Dict[str, int] = {}
        for friend in friends:
            site = masters[friend]
            votes[site] = votes.get(site, 0) + 1
        votes.pop(home, None)
        # most-befriended datacenters first, nearest-first tie-break
        home_rank = rank[home]
        ranked = sorted(votes, key=lambda dc: (-votes[dc], home_rank[dc]))
        replicas: List[str] = [home] + ranked[:max_replicas - 1]
        if len(replicas) < min_replicas:
            for dc in nearest[home]:
                if dc not in replicas:
                    replicas.append(dc)
                if len(replicas) >= min_replicas:
                    break
        replication.set_group(user_group(user), replicas)
    return replication
