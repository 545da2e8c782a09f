"""Facebook-based social networking benchmark (§7.4).

The paper replays a social workload over the New Orleans Facebook dataset
(61,096 users, 905,565 edges — not redistributable), with operation
frequencies from the measurement study of Benevenuto et al. [15], data
partitioned across the seven datacenters by the SPAR algorithm [46] with a
bounded number of replicas per user.

We generate a synthetic scale-free graph with the same density knob
(Barabási–Albert preferential attachment: the original averages ~14.8
friends per user), run the same bounded partitioner, and drive the same
kind of operation mix.  Operation categories (shares derived from [15],
where browsing dominates):

=====================  =====  ==========================================
operation              share  behaviour
=====================  =====  ==========================================
browse own profile      30%   read a key of the client's own user
browse friend updates   47%   read a key of a random friend
universal search         5%   read a key of a random user anywhere
edit own settings        10%   update a key of the client's own user
write on friend's wall    8%   update a friend's key (local replicas only)
=====================  =====  ==========================================

Reads of data not replicated at the client's datacenter become remote reads
(the §4.4 migration dance), so the replication bound directly controls the
remote-read rate — exactly the knob Fig. 8a sweeps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.core.replication import ReplicationMap
from repro.sim.rng import RngRegistry
from repro.workloads.ops import ReadOp, RemoteReadOp, UpdateOp
from repro.workloads.partitioning import (assign_masters,
                                          build_social_replication,
                                          user_group)

__all__ = ["FacebookWorkload", "generate_social_graph", "OPERATION_MIX",
           "social_op_generator"]

#: (name, share, is_write) — shares sum to 1.0
OPERATION_MIX = (
    ("browse_own", 0.30, False),
    ("browse_friend", 0.47, False),
    ("search_random", 0.05, False),
    ("edit_own", 0.10, True),
    ("write_friend", 0.08, True),
)
#: keys per user's group; an operation on a user touches one of them
KEYS_PER_USER = 4


def social_op_generator(dc_name: str, me: int, my_friends: Sequence[int],
                        num_users: int, value_size: int,
                        replication: ReplicationMap,
                        latency: Callable[[str, str], float],
                        stream: random.Random) -> Callable[[object], object]:
    """The ``workload(client) -> op`` closure of one social client: user
    *me* at *dc_name* draws from :data:`OPERATION_MIX` on *stream*.  Each
    read or friend write asks *replication* for the user's replicas once,
    at draw time."""

    def _key(user: int) -> str:
        return f"{user_group(user)}:{stream.randrange(KEYS_PER_USER)}"

    def _read(user: int) -> object:
        group = user_group(user)
        replicas = replication.replicas_of_group(group)
        if dc_name in replicas:
            return ReadOp(key=_key(user))
        target = min(replicas, key=lambda dc: (latency(dc_name, dc), dc))
        return RemoteReadOp(key=_key(user), target_dc=target)

    def _local_write(user: int) -> object:
        """Write if *user*'s data is local, else browse instead."""
        group = user_group(user)
        if dc_name in replication.replicas_of_group(group):
            return UpdateOp(key=_key(user), value_size=value_size)
        return _read(user)

    def _next(client: object) -> object:
        roll = stream.random()
        cumulative = 0.0
        for name, share, _ in OPERATION_MIX:
            cumulative += share
            if roll < cumulative:
                break
        else:
            name = OPERATION_MIX[-1][0]
        if name == "browse_own":
            return ReadOp(key=_key(me))
        if name == "browse_friend" and my_friends:
            return _read(stream.choice(my_friends))
        if name == "search_random":
            return _read(stream.randrange(num_users))
        if name == "edit_own":
            return UpdateOp(key=_key(me), value_size=value_size)
        if name == "write_friend" and my_friends:
            return _local_write(stream.choice(my_friends))
        return ReadOp(key=_key(me))

    return _next


def generate_social_graph(num_users: int, attachment: int,
                          rng: RngRegistry) -> Dict[int, Set[int]]:
    """Barabási–Albert preferential-attachment graph as adjacency sets.

    Implemented directly (repeated-nodes method) so the substrate has no
    hard dependency on networkx.
    """
    if num_users <= attachment:
        raise ValueError("num_users must exceed the attachment parameter")
    stream = rng.stream("social-graph")
    adjacency: Dict[int, Set[int]] = {u: set() for u in range(num_users)}
    repeated: List[int] = []
    # seed clique over the first `attachment + 1` users
    for u in range(attachment + 1):
        for v in range(u + 1, attachment + 1):
            adjacency[u].add(v)
            adjacency[v].add(u)
            repeated.extend((u, v))
    getrandbits = stream.getrandbits
    for u in range(attachment + 1, num_users):
        # stream.choice(repeated) unrolled: CPython's choice rejection-
        # samples an index from getrandbits(n.bit_length()); these are the
        # same draws (pinned by the fig8 digest) without two calls per draw
        n = len(repeated)
        bits = n.bit_length()
        targets: Set[int] = set()
        while len(targets) < attachment:
            index = getrandbits(bits)
            while index >= n:
                index = getrandbits(bits)
            candidate = repeated[index]
            if candidate != u:
                targets.add(candidate)
        for v in targets:
            adjacency[u].add(v)
            adjacency[v].add(u)
            repeated.extend((u, v))
    return adjacency


@dataclass
class FacebookWorkload:
    """Social-network workload over a partitioned synthetic graph."""

    num_users: int = 1500
    attachment: int = 7
    min_replicas: int = 2
    max_replicas: int = 5
    value_size: int = 64

    def __post_init__(self) -> None:
        self._adjacency: Optional[Dict[int, Set[int]]] = None
        self._masters: Optional[Dict[int, str]] = None
        self._replication: Optional[ReplicationMap] = None
        self._users_by_dc: Dict[str, List[int]] = {}
        self._client_counter: Dict[str, int] = {}

    # ------------------------------------------------------------------

    def replication_map(self, datacenters: Sequence[str],
                        latency: Callable[[str, str], float],
                        rng: RngRegistry) -> ReplicationMap:
        self._adjacency = generate_social_graph(self.num_users,
                                                self.attachment, rng)
        self._masters = assign_masters(self._adjacency, datacenters)
        self._replication = build_social_replication(
            self._adjacency, self._masters, datacenters, latency,
            min_replicas=self.min_replicas, max_replicas=self.max_replicas)
        self._users_by_dc = {dc: [] for dc in datacenters}
        for user, master in sorted(self._masters.items()):
            self._users_by_dc[master].append(user)
        return self._replication

    @property
    def masters(self) -> Dict[int, str]:
        if self._masters is None:
            raise RuntimeError("replication_map() must run first")
        return self._masters

    @property
    def adjacency(self) -> Dict[int, Set[int]]:
        if self._adjacency is None:
            raise RuntimeError("replication_map() must run first")
        return self._adjacency

    # ------------------------------------------------------------------

    def client_generator(self, dc_name: str, replication: ReplicationMap,
                         rng: RngRegistry,
                         latency: Callable[[str, str], float],
                         stream_name: str) -> Callable[[object], object]:
        if self._replication is None:
            raise RuntimeError("replication_map() must run first")
        stream = rng.stream(stream_name)
        local_users = self._users_by_dc.get(dc_name) or sorted(self.masters)
        index = self._client_counter.get(dc_name, 0)
        self._client_counter[dc_name] = index + 1
        me = local_users[index % len(local_users)]
        my_friends = sorted(self.adjacency[me])
        return social_op_generator(dc_name, me, my_friends, self.num_users,
                                   self.value_size, replication, latency,
                                   stream)
