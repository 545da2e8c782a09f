"""Serializer tree topology (§5.3).

Serializers and datacenters form a tree: datacenters are leaves, each
attached to exactly one serializer; serializers are internal nodes connected
by FIFO channels.  Labels are propagated along the shared tree from the
source datacenter outward, and each edge may add a configured artificial
delay (§5.4).

This module is the *static* description: node placement, edges, delays,
attachment points, plus derived routing tables (which datacenters are
reachable through each edge — the basis of genuine partial replication) and
path-latency computation used by the configuration solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Tuple

__all__ = ["TreeTopology", "TopologyError", "SerializerRouting"]


class TopologyError(ValueError):
    """Raised when a topology description is not a valid serializer tree."""


@dataclass(frozen=True)
class SerializerRouting:
    """Precomputed per-serializer routing view (see :meth:`TreeTopology.routing`).

    Everything a serializer needs on its forwarding hot path, resolved once:
    tree neighbors, datacenters reachable through each neighbor, locally
    attached datacenters, and the artificial delay of each outgoing edge.
    """

    neighbors: Tuple[str, ...]
    reachable: Dict[str, FrozenSet[str]]
    attached: Tuple[str, ...]
    delays: Dict[str, float]


@dataclass
class TreeTopology:
    """A serializer tree.

    Parameters
    ----------
    serializer_sites:
        serializer name -> geographic site (latency-matrix row).
    edges:
        undirected serializer-serializer edges.
    attachments:
        datacenter -> serializer it connects to.
    delays:
        optional artificial delay in ms for the *directed* edge
        ``(from_serializer, to_serializer)``.
    """

    serializer_sites: Dict[str, str]
    edges: List[Tuple[str, str]]
    attachments: Dict[str, str]
    delays: Dict[Tuple[str, str], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._validate()
        self._adjacency: Dict[str, List[str]] = {s: [] for s in self.serializer_sites}
        for a, b in self.edges:
            self._adjacency[a].append(b)
            self._adjacency[b].append(a)
        self._attached_dcs: Dict[str, List[str]] = {s: [] for s in self.serializer_sites}
        for dc, ser in self.attachments.items():
            self._attached_dcs[ser].append(dc)
        self._reachable: Dict[Tuple[str, str], FrozenSet[str]] = {}
        self._compute_reachability()
        self._routing: Dict[str, SerializerRouting] = {}

    # -- validation -----------------------------------------------------------

    def _validate(self) -> None:
        names = set(self.serializer_sites)
        if not names:
            raise TopologyError("tree needs at least one serializer")
        for a, b in self.edges:
            if a not in names or b not in names:
                raise TopologyError(f"edge ({a}, {b}) references unknown serializer")
            if a == b:
                raise TopologyError(f"self-loop on serializer {a}")
        if len(self.edges) != len(names) - 1:
            raise TopologyError(
                f"{len(names)} serializers need exactly {len(names) - 1} edges "
                f"to form a tree, got {len(self.edges)}"
            )
        # connectivity check (BFS); with |E| = |V|-1 this also rules out cycles
        adjacency: Dict[str, List[str]] = {s: [] for s in names}
        for a, b in self.edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        seen = set()
        frontier = [next(iter(sorted(names)))]
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(adjacency[node])
        if seen != names:
            raise TopologyError("serializer graph is not connected")
        for dc, ser in self.attachments.items():
            if ser not in names:
                raise TopologyError(f"datacenter {dc} attached to unknown serializer {ser}")

    # -- derived structure ------------------------------------------------------

    @property
    def serializers(self) -> List[str]:
        return sorted(self.serializer_sites)

    @property
    def datacenters(self) -> List[str]:
        return sorted(self.attachments)

    def delay(self, src: str, dst: str) -> float:
        return self.delays.get((src, dst), 0.0)

    def _compute_reachability(self) -> None:
        """For every directed serializer edge (s -> n), the set of
        datacenters living in the subtree entered through n."""

        def collect(node: str, parent: str) -> FrozenSet[str]:
            found = set(self._attached_dcs[node])
            for nxt in self._adjacency[node]:
                if nxt != parent:
                    found |= collect(nxt, node)
            return frozenset(found)

        for s in self.serializer_sites:
            for n in self._adjacency[s]:
                self._reachable[(s, n)] = collect(n, s)

    def reachable_dcs(self, serializer: str, via_neighbor: str) -> FrozenSet[str]:
        return self._reachable[(serializer, via_neighbor)]

    def routing(self, serializer: str) -> SerializerRouting:
        """Cached hot-path routing view for one serializer.

        The topology is immutable after construction (reconfiguration
        builds a new :class:`TreeTopology`), so the view is computed once
        per serializer and shared by every lookup."""
        view = self._routing.get(serializer)
        if view is None:
            neighbors = tuple(self._adjacency[serializer])
            view = SerializerRouting(
                neighbors=neighbors,
                reachable={n: self._reachable[(serializer, n)] for n in neighbors},
                attached=tuple(self._attached_dcs[serializer]),
                delays={n: self.delays.get((serializer, n), 0.0) for n in neighbors},
            )
            self._routing[serializer] = view
        return view

    def rebuild_routing(self) -> None:
        """Re-derive every memoized structure from the public fields.

        Reconfiguration normally builds a fresh :class:`TreeTopology`, but a
        repaired tree is sometimes produced by mutating ``attachments`` /
        ``edges`` / ``delays`` of a copy in place.  Any such mutation makes
        ``_reachable`` and the cached :class:`SerializerRouting` views stale
        — and serializers resolve their routing from here at construction —
        so callers installing a mutated topology must rebuild first.
        ``SaturnService.install_tree`` does this on every epoch change.
        """
        self.__post_init__()

    # -- paths (used by the configuration solver and tests) ---------------------

    def serializer_path(self, dc_from: str, dc_to: str) -> List[str]:
        """Ordered serializers on the metadata path between two datacenters."""
        path = [self.attachments[dc_from]]
        goal = self.attachments[dc_to]
        while path[-1] != goal:
            # the one neighbor whose subtree holds the destination
            path.append(next(n for n in self._adjacency[path[-1]]
                             if dc_to in self._reachable[(path[-1], n)]))
        return path

    def path_latency(self, dc_from: str, dc_to: str,
                     site_latency, dc_sites: Dict[str, str]) -> float:
        """Metadata-path latency ΛM(i, j): dc -> serializers -> dc.

        ``site_latency(a, b)`` returns one-way latency between sites;
        ``dc_sites`` maps datacenter names to their sites.
        """
        path = self.serializer_path(dc_from, dc_to)
        total = site_latency(dc_sites[dc_from], self.serializer_sites[path[0]])
        for a, b in zip(path, path[1:]):
            total += site_latency(self.serializer_sites[a], self.serializer_sites[b])
            total += self.delay(a, b)
        total += site_latency(self.serializer_sites[path[-1]], dc_sites[dc_to])
        return total

    def with_delays(self, delays: Dict[Tuple[str, str], float]) -> "TreeTopology":
        """Copy of this topology with different artificial delays."""
        return TreeTopology(
            serializer_sites=dict(self.serializer_sites),
            edges=list(self.edges),
            attachments=dict(self.attachments),
            delays=dict(delays),
        )

    @classmethod
    def chain(cls, sites: Sequence[str]) -> "TreeTopology":
        """One serializer ``s<site>`` per site, chained in *sites* order,
        each datacenter attached to its own: every label crosses the
        whole chain (the worst-case metadata path)."""
        names = [f"s{site}" for site in sites]
        return cls(serializer_sites=dict(zip(names, sites)),
                   edges=list(zip(names, names[1:])),
                   attachments=dict(zip(sites, names)))

    @classmethod
    def star(cls, serializer_site: str, dc_sites: Dict[str, str],
             name: str = "S1") -> "TreeTopology":
        """Single-serializer star (the paper's S-configuration)."""
        return cls(
            serializer_sites={name: serializer_site},
            edges=[],
            attachments={dc: name for dc in dc_sites},
        )
