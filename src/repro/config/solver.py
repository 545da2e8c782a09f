"""Per-tree configuration solver (the "constraint solver" of §5.5).

The paper models Definition 2 as a constraint problem solved with OscaR:
given a tree *shape*, find the optimal serializer locations (from a set of
candidate sites) and the optimal artificial propagation delays.  We solve
the same problem in two stages:

1. **Placement** — coordinate descent over internal nodes, trying every
   candidate site.  Because artificial delays can only *add* latency, the
   placement objective penalizes overshoot (ΛM > Δ) at full weight and
   undershoot at a discount (it may later be fixed by delays).  A shape's
   pair paths do not depend on where its serializers sit, so each weighted
   pair's path is taken once per shape and a placement is scored by table
   lookups into a site-index latency matrix.
2. **Delays** — with sites fixed, choosing per-directed-edge delays that
   minimize Σ c_ij |P_ij + Σ_e δ_e − Δ_ij| is an L1 regression with
   non-negativity constraints: a small linear program, solved exactly by a
   rational simplex (Bland's rule) starting from δ = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.config.objective import weighted_mismatch, weighted_pairs
from repro.core.tree import TreeTopology

__all__ = ["TreeShape", "TreeSolver", "SolvedTree", "optimize_delays"]


@dataclass(frozen=True)
class TreeShape:
    """A tree *shape*: internal nodes, internal edges, leaf attachments.

    Sites are not yet assigned — that is the solver's job.
    """

    internal_nodes: Tuple[str, ...]
    edges: Tuple[Tuple[str, str], ...]
    attachments: Tuple[Tuple[str, str], ...]  # (datacenter, internal node)

    def to_topology(self, sites: Dict[str, str],
                    delays: Optional[Dict[Tuple[str, str], float]] = None) -> TreeTopology:
        return TreeTopology(
            serializer_sites={node: sites[node] for node in self.internal_nodes},
            edges=list(self.edges),
            attachments=dict(self.attachments),
            delays=dict(delays or {}),
        )


@dataclass
class SolvedTree:
    """Solver output: a fully configured topology and its mismatch score."""

    topology: TreeTopology
    score: float


class TreeSolver:
    """Solves tree shapes for one instance: datacenter sites, candidate
    serializer sites, the latency of both metadata and bulk links, pair
    weights.

    Sites become indices and *latency* a matrix, built once and shared by
    every shape the Algorithm 3 search ranks."""

    def __init__(self, dc_sites: Dict[str, str],
                 candidate_sites: Sequence[str],
                 latency: Callable[[str, str], float],
                 weights: Optional[Dict[Tuple[str, str], float]] = None
                 ) -> None:
        self.dc_sites = dc_sites
        self.latency = latency
        self.weights = weights
        self.sites = sorted(set(dc_sites.values()) | set(candidate_sites))
        self.index = {site: k for k, site in enumerate(self.sites)}
        self.matrix = [[latency(a, b) for b in self.sites] for a in self.sites]
        self.candidates = [self.index[site] for site in candidate_sites]

    def _achieved(self, src: int, path: List[int], dst: int,
                  at: List[int]) -> float:
        """ΛM over *path* (serializer slots) with no delays, summed in
        :meth:`TreeTopology.path_latency`'s order so it is bit-identical."""
        matrix = self.matrix
        here = at[path[0]]
        total = matrix[src][here]
        for slot in path[1:]:
            nxt = at[slot]
            total += matrix[here][nxt]
            here = nxt
        return total + matrix[here][dst]

    def _place(self, shape: TreeShape) -> Tuple[List[int], float, list]:
        """Coordinate-descent placement: (site index per internal node, its
        cost, the weighted pairs).  A pair is (weight, optimal, source site,
        path as node slots, destination site, path as node names), in
        :func:`weighted_mismatch`'s order."""
        nodes = shape.internal_nodes
        slot = {node: k for k, node in enumerate(nodes)}
        # initialize each internal node at the site of one of its attached
        # datacenters (or the first candidate)
        attached: Dict[str, List[str]] = {}
        for dc, node in shape.attachments:
            attached.setdefault(node, []).append(dc)
        at = [self.index[self.dc_sites[min(attached[node])]] if node in attached
              else self.candidates[0] for node in nodes]
        topology = shape.to_topology(self._names(nodes, at))
        pairs = []
        touches: List[List[int]] = [[] for _ in nodes]  # pairs through slot k
        for i, j, weight in weighted_pairs(topology, self.weights):
            path = topology.serializer_path(i, j)
            for node in path:
                touches[slot[node]].append(len(pairs))
            pairs.append((weight, self.latency(self.dc_sites[i],
                                               self.dc_sites[j]),
                          self.index[self.dc_sites[i]],
                          [slot[node] for node in path],
                          self.index[self.dc_sites[j]], path))

        def term(pair) -> float:
            weight, optimal, src, path, dst, _ = pair
            gap = self._achieved(src, path, dst, at) - optimal
            # undershoot at a discount: delays may make it up later
            return weight * (gap if gap > 0 else -gap * 0.3)

        # only the pairs through the moved node are rescored, but the total
        # is re-added in pair order, so every cost is bit-identical to a
        # full rescore
        terms = [term(pair) for pair in pairs]
        best = reduce(add, terms, 0.0)
        for _ in range(4):
            improved = False
            for k, touched in enumerate(touches):
                current = at[k]
                kept = [terms[p] for p in touched]
                for candidate in self.candidates:
                    if candidate == current:
                        continue
                    at[k] = candidate
                    for p in touched:
                        terms[p] = term(pairs[p])
                    cost = reduce(add, terms, 0.0)
                    if cost < best - 1e-9:
                        best = cost
                        current = candidate
                        kept = [terms[p] for p in touched]
                        improved = True
                    else:
                        at[k] = current
                for p, value in zip(touched, kept):
                    terms[p] = value
            if not improved:
                break
        return at, best, pairs

    def solve(self, shape: TreeShape) -> SolvedTree:
        """Optimal placement + delays for one tree shape; returns the
        scored configuration (Definition 2 objective)."""
        at, _, pairs = self._place(shape)
        delays = _solve_delays(shape.edges, [
            (weight, optimal - self._achieved(src, slots, dst, at), path)
            for weight, optimal, src, slots, dst, path in pairs])
        topology = shape.to_topology(self._names(shape.internal_nodes, at),
                                     delays)
        score = weighted_mismatch(topology, self.dc_sites, self.latency,
                                  self.weights)
        return SolvedTree(topology=topology, score=score)

    def _names(self, nodes: Sequence[str], at: List[int]) -> Dict[str, str]:
        return {node: self.sites[k] for node, k in zip(nodes, at)}


def _exact(value: float) -> Union[int, Fraction]:
    return int(value) if value.is_integer() else Fraction(value)


def _solve_delays(edges: Sequence[Tuple[str, str]],
                  pairs: List[Tuple[float, float, List[str]]]) -> Dict[Tuple[str, str], float]:
    """Exact L1-optimal non-negative delays on both directions of *edges*
    for *pairs* of (weight, gap to make up, serializer path).

    The LP in residual form: minimize Σ w_p (s⁺_p + s⁻_p) subject to
    Σ_{e ∈ path p} δ_e − s⁺_p + s⁻_p = g_p with δ, s⁺, s⁻ ≥ 0.  δ = 0 is a
    feasible basis (s⁻_p basic where g_p > 0, s⁺_p otherwise), so the
    simplex starts there; when the first reduced-cost check finds no
    improving edge, δ = 0 is optimal and no pivot is made.  Arithmetic is
    rational and the pivot rule is Bland's, so the result is exact and
    deterministic.
    """
    directed = [edge for a, b in edges for edge in ((a, b), (b, a))]
    if not directed or not pairs:
        return {}
    column = {edge: k for k, edge in enumerate(directed)}
    # columns: δ per directed edge, then s⁺_p, s⁻_p per pair; the last
    # entry of each row is its right-hand side
    width = len(directed) + 2 * len(pairs)
    rows: List[list] = []
    basis: List[int] = []
    # reduced costs at the δ = 0 basis: -Σ w_p·sign_p over the pairs an
    # edge serves, 2·w_p on each pair's nonbasic slack, 0 on its basic one
    reduced: list = [0] * (width + 1)
    for p, (weight, gap, path) in enumerate(pairs):
        sign = 1 if gap > 0 else -1
        w = _exact(weight)
        row = [0] * (width + 1)
        for hop in zip(path, path[1:]):
            row[column[hop]] = sign
            reduced[column[hop]] -= sign * w
        plus = len(directed) + 2 * p
        row[plus], row[plus + 1] = -sign, sign
        row[width] = sign * _exact(gap)
        rows.append(row)
        basis.append(plus + 1 if sign > 0 else plus)
        reduced[plus if sign > 0 else plus + 1] = 2 * w
    while True:
        entering = next((j for j in range(width) if reduced[j] < 0), None)
        if entering is None:
            break
        # ratio test, ties to the lowest basic column (Bland's rule); some
        # row qualifies because the objective is bounded below by 0
        leaving = min((row[width] / Fraction(row[entering]), basis[i], i)
                      for i, row in enumerate(rows) if row[entering] > 0)[2]
        pivot_row = rows[leaving]
        pivot = Fraction(pivot_row[entering])
        pivot_row[:] = [value / pivot for value in pivot_row]
        support = [k for k, value in enumerate(pivot_row) if value]
        for row in rows + [reduced]:
            factor = row[entering]
            if factor and row is not pivot_row:
                for k in support:
                    row[k] -= factor * pivot_row[k]
        basis[leaving] = entering
    values = {directed[j]: float(row[width]) for row, j in zip(rows, basis)
              if j < len(directed)}
    return {edge: value for edge, value in values.items() if value > 1e-6}


def optimize_delays(topology: TreeTopology, dc_sites: Dict[str, str],
                    latency: Callable[[str, str], float],
                    weights: Optional[Dict[Tuple[str, str], float]] = None,
                    bulk_latency: Optional[Callable[[str, str], float]] = None,
                    ) -> Dict[Tuple[str, str], float]:
    """Public entry point: optimal artificial delays for a fixed topology."""
    if bulk_latency is None:
        bulk_latency = latency
    # per pair, the gap to make up with delays (negative = undershoot)
    return _solve_delays(topology.edges, [
        (weight, bulk_latency(dc_sites[i], dc_sites[j])
         - topology.path_latency(i, j, latency, dc_sites),
         topology.serializer_path(i, j))
        for i, j, weight in weighted_pairs(topology, weights)])
