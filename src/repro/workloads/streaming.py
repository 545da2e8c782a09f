"""Streaming million-user social workload (ROADMAP item 1).

The materialized Facebook-like generator (:mod:`repro.workloads.facebook`)
builds the full adjacency structure up front, which caps it near the
paper's 61k users: ten million users at ~15 friends each would be a
10^8-entry edge set.  This module scales the same workload shape to
millions of users by *sampling* the graph on demand:

* :class:`StreamingSocialGraph` — a seeded, deterministic power-law graph
  in the Barabási–Albert family.  Nothing is materialized: a user's
  friend list is derived from per-user hash-seeded randomness the first
  time it is needed, so memory grows with the number of *touched* users
  (times their degree), never with the edge count.

  The construction uses the static reformulation of preferential
  attachment: user ``u`` directs its ``attachment`` edges at targets
  ``v = floor(u * U^2)`` with ``U`` uniform on (0, 1), which reproduces
  the BA attachment kernel ``P(v) ∝ 1/(2·sqrt(u·v))`` — degree of ``v``
  at time ``u`` grows as ``sqrt(u/v)`` — hence the same mean degree
  ``2·attachment`` and the same ``P(D > k) ∝ k^-2`` tail as the
  materialized generator.  In-edges are sampled from the matching
  marginal: the in-degree of ``u`` is Poisson with the analytic mean
  ``attachment · (sqrt(u+1) - sqrt(u)) · 2(sqrt(N) - sqrt(u+1))`` and
  in-neighbours follow the ``1/sqrt(w)`` density on ``(u, N)``.  Edge
  *reciprocity* is approximated (``w`` appearing in ``u``'s friend list
  does not force ``u`` into ``w``'s), which the workload never observes:
  it only needs each user's friend list to be stable and the population's
  degree distribution to match — both pinned by property tests.

* :class:`IncrementalPartitioner` — the SPAR-like greedy placement of
  :func:`repro.workloads.partitioning.assign_masters`, computed lazily
  per user instead of globally: a user's master is the datacenter where
  most of its (already-placed) out-neighbours live, under the same
  ``balance_slack`` capacity cap.  Out-neighbour ids strictly decrease,
  so the recursion grounds in the seed clique; results are memoized
  permanently, which makes the assignment deterministic for a fixed
  query sequence (and every simulated run issues a deterministic query
  sequence).

* :class:`StreamingReplicationMap` — a :class:`ReplicationMap` that
  computes a user group's replica set on first lookup (master + the
  friends' masters, capped/padded exactly like
  :func:`~repro.workloads.partitioning.build_social_replication`).

* :class:`StreamingFacebookWorkload` — drop-in workload with the same
  operation mix as :class:`~repro.workloads.facebook.FacebookWorkload`,
  usable at ``num_users=10**6`` and beyond.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.replication import ReplicationMap
from repro.sim.rng import RngRegistry
from repro.workloads.facebook import social_op_generator

__all__ = ["StreamingSocialGraph", "IncrementalPartitioner",
           "StreamingReplicationMap", "StreamingFacebookWorkload"]


class StreamingSocialGraph:
    """On-demand scale-free social graph (no materialized edge set).

    Every per-user draw comes from a fresh ``random.Random`` seeded by
    SHA-256 over ``(seed, user)`` — the same scheme as
    :class:`~repro.sim.rng.RngRegistry` — so ``friends(u)`` is a pure
    function of ``(seed, u)``: deterministic across runs, query orders,
    and Python versions.
    """

    def __init__(self, num_users: int, attachment: int = 7,
                 seed: int = 0) -> None:
        if num_users <= attachment:
            raise ValueError("num_users must exceed the attachment parameter")
        if attachment < 1:
            raise ValueError("attachment must be positive")
        self.num_users = num_users
        self.attachment = attachment
        self.seed = seed
        self._sqrt_n = math.sqrt(num_users)
        #: memoized friend lists for *touched* users only
        self._friends: Dict[int, Tuple[int, ...]] = {}
        self._out: Dict[int, Tuple[int, ...]] = {}

    # -- seeded per-user randomness -----------------------------------------

    def _rng_for(self, user: int, purpose: str) -> random.Random:
        digest = hashlib.sha256(
            f"{self.seed}:sg:{purpose}:{user}".encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    # -- out-edges (the preferential-attachment draws) -----------------------

    def out_neighbors(self, user: int) -> Tuple[int, ...]:
        """The ``attachment`` users *user* befriended on arrival.

        Users ``0..attachment`` form the seed clique (as in the
        materialized generator); every later user directs its edges at
        ``floor(user * U^2)``, the static equivalent of preferential
        attachment.  Always a subset of ``range(user)`` (plus the clique
        for early users), so recursions over out-edges terminate.
        """
        self._check(user)
        cached = self._out.get(user)
        if cached is not None:
            return cached
        m = self.attachment
        if user <= m:
            out = tuple(v for v in range(m + 1) if v != user)
        else:
            rnd = self._rng_for(user, "out")
            targets: List[int] = []
            seen = set()
            while len(targets) < m:
                v = int(user * rnd.random() ** 2)
                if v not in seen:
                    seen.add(v)
                    targets.append(v)
            out = tuple(targets)
        self._out[user] = out
        return out

    # -- in-edges (sampled from the analytic marginal) -----------------------

    def _expected_in_degree(self, user: int) -> float:
        """E[#users w > user with user in out_neighbors(w)].

        ``P(floor(w·U²) = user) = sqrt((user+1)/w) - sqrt(user/w)``;
        summing ``attachment`` draws over ``w`` in ``(user, N)`` gives
        ``m · (sqrt(user+1) - sqrt(user)) · 2(sqrt(N) - sqrt(user+1))``
        (≈ ``m·(sqrt(N/user) - 1)`` for large *user* — the classic BA
        in-degree, whose population tail is ``P(D > k) ∝ k^-2``).
        """
        root_next = math.sqrt(user + 1)
        width = max(0.0, self._sqrt_n - root_next)
        return (self.attachment * (root_next - math.sqrt(user)) * 2.0 * width)

    @staticmethod
    def _poisson(rnd: random.Random, lam: float) -> int:
        if lam <= 0.0:
            return 0
        if lam > 64.0:
            # normal approximation; exact Knuth would loop O(lam) times
            return max(0, int(round(lam + math.sqrt(lam) * rnd.gauss(0, 1))))
        threshold = math.exp(-lam)
        count, product = 0, rnd.random()
        while product > threshold:
            count += 1
            product *= rnd.random()
        return count

    def in_neighbors(self, user: int) -> Tuple[int, ...]:
        """Sampled users ``w > user`` that befriended *user* on arrival.

        Count is Poisson with the analytic mean; each neighbour is drawn
        by inverse transform from the ``1/sqrt(w)`` density on
        ``(user, N)``: ``w = floor((sqrt(user+1) + U·(sqrt(N) -
        sqrt(user+1)))²)``.
        """
        rnd = self._rng_for(user, "in")
        count = self._poisson(rnd, self._expected_in_degree(user))
        low = math.sqrt(user + 1)
        span = self._sqrt_n - low
        if span <= 0.0 or count == 0:
            return ()
        neighbors: List[int] = []
        seen = set()
        attempts = 0
        limit = 4 * count + 16
        while len(neighbors) < count and attempts < limit:
            attempts += 1
            w = int((low + rnd.random() * span) ** 2)
            if user < w < self.num_users and w not in seen:
                seen.add(w)
                neighbors.append(w)
        return tuple(neighbors)

    # -- the public friend list ---------------------------------------------

    def friends(self, user: int) -> Tuple[int, ...]:
        """Deterministic sorted friend list of *user* (memoized)."""
        self._check(user)
        cached = self._friends.get(user)
        if cached is None:
            merged = set(self.out_neighbors(user))
            merged.update(self.in_neighbors(user))
            merged.discard(user)
            cached = tuple(sorted(merged))
            self._friends[user] = cached
        return cached

    def degree(self, user: int) -> int:
        return len(self.friends(user))

    def touched_users(self) -> int:
        """Users whose friend list has been materialized so far."""
        return len(self._friends)

    def _check(self, user: int) -> None:
        if not 0 <= user < self.num_users:
            raise ValueError(f"user {user} out of range [0, {self.num_users})")


class IncrementalPartitioner:
    """Lazy SPAR-like master placement with the greedy balance cap.

    Mirrors :func:`repro.workloads.partitioning.assign_masters`: a user
    goes where most of its already-placed friends are, unless that
    datacenter is at capacity (``num_users/len(datacenters) ·
    balance_slack + 1``), in which case the least-loaded datacenter under
    the cap wins.  Votes come from the user's *out*-neighbours (strictly
    smaller ids), so placement recursion terminates at the seed clique;
    each answer is memoized permanently, making the whole assignment a
    deterministic function of the (deterministic) query sequence.
    """

    def __init__(self, graph: StreamingSocialGraph,
                 datacenters: Sequence[str],
                 balance_slack: float = 1.10) -> None:
        if not datacenters:
            raise ValueError("need at least one datacenter")
        self.graph = graph
        self.datacenters = list(datacenters)
        self.capacity = int(graph.num_users / len(datacenters)
                            * balance_slack) + 1
        self._load = {dc: 0 for dc in self.datacenters}
        self._masters: Dict[int, str] = {}

    def master_of(self, user: int) -> str:
        cached = self._masters.get(user)
        if cached is not None:
            return cached
        # iterative DFS over the out-edge closure (strictly decreasing ids
        # outside the seed clique), so a million-user chain cannot hit the
        # recursion limit.  The seed clique is cyclic, hence the
        # in-progress set: a node already on the stack is not re-pushed,
        # and its vote simply isn't placed yet when a clique-mate is
        # assigned — same tie-breaking as the materialized partitioner,
        # which also assigns the seed users in discovery order.
        stack = [user]
        visiting = {user}
        while stack:
            top = stack[-1]
            if top in self._masters:
                stack.pop()
                continue
            pending = [v for v in self.graph.out_neighbors(top)
                       if v not in self._masters and v not in visiting]
            if pending:
                stack.extend(pending)
                visiting.update(pending)
                continue
            stack.pop()
            self._assign(top)
        return self._masters[user]

    def _assign(self, user: int) -> None:
        votes: Dict[str, int] = {}
        for friend in self.graph.out_neighbors(user):
            master = self._masters.get(friend)
            if master is not None:
                votes[master] = votes.get(master, 0) + 1
        best = None
        best_key = None
        for dc in self.datacenters:
            if self._load[dc] >= self.capacity:
                continue
            key = (-votes.get(dc, 0), self._load[dc], dc)
            if best_key is None or key < best_key:
                best_key = key
                best = dc
        if best is None:  # every datacenter at cap: pick least loaded
            best = min(self._load, key=lambda dc: (self._load[dc], dc))
        self._masters[user] = best
        self._load[best] += 1

    def load(self) -> Dict[str, int]:
        return dict(self._load)

    def assigned_users(self) -> int:
        return len(self._masters)


class StreamingReplicationMap(ReplicationMap):
    """Replica sets computed on first lookup (lazy ``gu<user>`` groups).

    Same policy as
    :func:`~repro.workloads.partitioning.build_social_replication`:
    master first, then the friends' masters ranked by friend count
    (nearest-first tie-break), capped at ``max_replicas`` and padded to
    ``min_replicas`` with the geographically nearest datacenters.
    Results go straight into the inherited ``_group_replicas`` memo —
    *not* through :meth:`set_group`, which would clear the shared
    interest cache on every new user — safe because a group's answer is
    deterministic and never changes.
    """

    def __init__(self, datacenters: Sequence[str],
                 graph: StreamingSocialGraph,
                 partitioner: IncrementalPartitioner,
                 latency: Callable[[str, str], float],
                 min_replicas: int = 2, max_replicas: int = 5) -> None:
        super().__init__(datacenters)
        if min_replicas < 1:
            raise ValueError("min_replicas must be >= 1")
        if max_replicas < min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")
        self.graph = graph
        self.partitioner = partitioner
        self.latency = latency
        self.min_replicas = min_replicas
        self.max_replicas = min(max_replicas, len(self.datacenters))

    def replicas_of_group(self, group):
        cached = self._group_replicas.get(group)
        if cached is not None:
            return cached
        user = self._parse_user(group)
        if user is None:
            return self._default
        replicas = frozenset(self._replicas_for_user(user))
        self._group_replicas[group] = replicas
        return replicas

    def _parse_user(self, group: str) -> Optional[int]:
        if not group.startswith("gu"):
            return None
        try:
            user = int(group[2:])
        except ValueError:
            return None
        return user if 0 <= user < self.graph.num_users else None

    def _replicas_for_user(self, user: int) -> List[str]:
        home = self.partitioner.master_of(user)
        votes: Dict[str, int] = {}
        for friend in self.graph.friends(user):
            master = self.partitioner.master_of(friend)
            if master != home:
                votes[master] = votes.get(master, 0) + 1
        latency = self.latency
        ranked = sorted(votes, key=lambda dc: (-votes[dc],
                                               latency(home, dc), dc))
        replicas = [home] + ranked[:self.max_replicas - 1]
        if len(replicas) < self.min_replicas:
            for dc in sorted(self.datacenters,
                             key=lambda d: (latency(home, d), d)):
                if dc not in replicas:
                    replicas.append(dc)
                if len(replicas) >= self.min_replicas:
                    break
        return replicas


@dataclass
class StreamingFacebookWorkload:
    """The §7.4 social workload at streaming scale (millions of users).

    Same knobs and operation mix as
    :class:`~repro.workloads.facebook.FacebookWorkload`; the difference
    is purely representational — graph, partitioning, and replication are
    all computed lazily, so booting a 10⁶-user workload touches O(clients
    × degree) users, not O(num_users).
    """

    num_users: int = 1_000_000
    attachment: int = 7
    min_replicas: int = 2
    max_replicas: int = 5
    value_size: int = 64
    balance_slack: float = 1.10

    def __post_init__(self) -> None:
        self._graph: Optional[StreamingSocialGraph] = None
        self._partitioner: Optional[IncrementalPartitioner] = None
        self._replication: Optional[StreamingReplicationMap] = None

    # ------------------------------------------------------------------

    def replication_map(self, datacenters: Sequence[str],
                        latency: Callable[[str, str], float],
                        rng: RngRegistry) -> ReplicationMap:
        self._graph = StreamingSocialGraph(self.num_users, self.attachment,
                                           seed=rng.seed)
        self._partitioner = IncrementalPartitioner(
            self._graph, datacenters, balance_slack=self.balance_slack)
        self._replication = StreamingReplicationMap(
            datacenters, self._graph, self._partitioner, latency,
            min_replicas=self.min_replicas, max_replicas=self.max_replicas)
        return self._replication

    @property
    def graph(self) -> StreamingSocialGraph:
        if self._graph is None:
            raise RuntimeError("replication_map() must run first")
        return self._graph

    @property
    def partitioner(self) -> IncrementalPartitioner:
        if self._partitioner is None:
            raise RuntimeError("replication_map() must run first")
        return self._partitioner

    # ------------------------------------------------------------------

    def _pick_local_user(self, dc_name: str, stream: random.Random) -> int:
        """A user mastered at *dc_name*, found by seeded rejection
        sampling (acceptance ≈ 1/len(datacenters) per probe)."""
        partitioner = self.partitioner
        if dc_name not in partitioner.datacenters:
            return stream.randrange(self.num_users)
        for _ in range(64 * len(partitioner.datacenters)):
            candidate = stream.randrange(self.num_users)
            if partitioner.master_of(candidate) == dc_name:
                return candidate
        return stream.randrange(self.num_users)  # pragma: no cover

    def client_generator(self, dc_name: str, replication: ReplicationMap,
                         rng: RngRegistry,
                         latency: Callable[[str, str], float],
                         stream_name: str) -> Callable[[object], object]:
        if self._replication is None:
            raise RuntimeError("replication_map() must run first")
        stream = rng.stream(stream_name)
        me = self._pick_local_user(dc_name, stream)
        my_friends = self.graph.friends(me)
        return social_op_generator(dc_name, me, my_friends, self.num_users,
                                   self.value_size, replication, latency,
                                   stream)
