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

An open loop spawns one client per concurrent user, and above saturation
the pool outgrows the graph (3,283 clients over 2,000 users at 10,000
ops/s per datacenter).  So what a user *is* — its group, its key strings,
its sorted friends — is a :class:`SocialUser` record built once per graph,
with the graph's first client, and a client's generator is one
slotted :class:`SocialClient` of references over those records and its
own ``random.Random`` stream (≈ 110 B beside the stream's 2.9 KB).
``replication_map`` also starts the assignment of users to clients over,
so a workload reused through it hands each cluster the clients a fresh
one would.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from repro.core.replication import ReplicationMap
from repro.sim.rng import RngRegistry
from repro.workloads.ops import ReadOp, RemoteReadOp, UpdateOp
from repro.workloads.partitioning import (assign_masters,
                                          build_social_replication,
                                          user_group)

__all__ = ["FacebookWorkload", "generate_social_graph", "OPERATION_MIX"]

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


#: the cumulative shares of OPERATION_MIX, summed in table order; the last
#: operation, write_friend, takes every roll above the fourth
_BROWSE_OWN, _BROWSE_FRIEND, _SEARCH_RANDOM, _EDIT_OWN = list(accumulate(
    share for _, share, _ in OPERATION_MIX))[:-1]


class SocialUser:
    """What a client reads of one user: its replication group, its keys,
    and its friends in ascending order."""

    __slots__ = ("group", "keys", "friends")

    def __init__(self, user: int, friends: Iterable[int]) -> None:
        self.group = user_group(user)
        self.keys = tuple(f"{self.group}:{i}" for i in range(KEYS_PER_USER))
        self.friends = tuple(sorted(friends))


class SocialClient:
    """The ``workload(client) -> op`` of one social client: user *me* at
    *dc_name* draws from :data:`OPERATION_MIX` on *stream*.  Each read or
    friend write asks *replication* for the user's replicas once, at draw
    time.  A client holds only references: *users*, the graph's records
    indexed by user, is shared by all the graph's clients."""

    __slots__ = ("dc_name", "me", "record", "users", "num_users",
                 "value_size", "replication", "latency", "stream")

    def __init__(self, dc_name: str, me: int, users: Sequence[SocialUser],
                 num_users: int, value_size: int,
                 replication: ReplicationMap,
                 latency: Callable[[str, str], float],
                 stream: random.Random) -> None:
        self.dc_name, self.me, self.record = dc_name, me, users[me]
        self.users, self.num_users = users, num_users
        self.value_size, self.replication = value_size, replication
        self.latency, self.stream = latency, stream

    def __call__(self, client: object) -> object:
        stream = self.stream
        roll = stream.random()
        record = self.record
        if roll < _BROWSE_OWN:
            return ReadOp(key=record.keys[stream.randrange(KEYS_PER_USER)])
        if roll < _BROWSE_FRIEND:
            if record.friends:
                return self._read(self.users[stream.choice(record.friends)])
        elif roll < _SEARCH_RANDOM:
            return self._read(self.users[stream.randrange(self.num_users)])
        elif roll < _EDIT_OWN:
            return UpdateOp(key=record.keys[stream.randrange(KEYS_PER_USER)],
                            value_size=self.value_size)
        elif record.friends:
            return self._local_write(
                self.users[stream.choice(record.friends)])
        # a friendless user browses its own profile instead
        return ReadOp(key=record.keys[stream.randrange(KEYS_PER_USER)])

    def _read(self, user: SocialUser) -> object:
        replicas = self.replication.replicas_of_group(user.group)
        key = user.keys[self.stream.randrange(KEYS_PER_USER)]
        if self.dc_name in replicas:
            return ReadOp(key=key)
        dc_name, latency = self.dc_name, self.latency
        _, target = min((latency(dc_name, dc), dc) for dc in replicas)
        return RemoteReadOp(key=key, target_dc=target)

    def _local_write(self, user: SocialUser) -> object:
        """Write if *user*'s data is local, else browse instead."""
        if self.dc_name in self.replication.replicas_of_group(user.group):
            key = user.keys[self.stream.randrange(KEYS_PER_USER)]
            return UpdateOp(key=key, value_size=self.value_size)
        return self._read(user)


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
        #: clients handed out per datacenter (the next client's user)
        self._client_counter: Dict[str, int] = {}
        #: the graph's user records, indexed by user; made with the first
        #: client, as only clients read them (an open loop makes its first
        #: client mid-run, so building the layout does not pay for them)
        self._users: List[SocialUser] = []

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
        # a new graph: new records, and the client assignment from the start
        self._client_counter, self._users = {}, []
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
        if not self._users:
            self._users = [SocialUser(user, self._adjacency[user])
                           for user in range(self.num_users)]
        stream = rng.stream(stream_name)
        local_users = self._users_by_dc.get(dc_name) or sorted(self.masters)
        index = self._client_counter.get(dc_name, 0)
        self._client_counter[dc_name] = index + 1
        me = local_users[index % len(local_users)]
        return SocialClient(dc_name, me, self._users, self.num_users,
                            self.value_size, replication, latency, stream)
