"""Configuration generator (Algorithm 3, §5.5).

Finding the configuration minimizing the Weighted Minimal Mismatch is
NP-hard (reduction from Steiner tree), so the paper searches the space of
full binary trees with N labeled leaves incrementally: starting from the
two-leaf tree, each iteration inserts the next datacenter into every
possible position of every surviving tree (2f−1 isomorphism classes per
tree of f leaves), ranks the candidates with the per-tree solver, and
discards trees whose ranking falls more than ``THRESHOLD`` behind their
predecessor (beam filtering, to avoid the 2,027,025-tree explosion at nine
datacenters).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config.solver import SolvedTree, TreeShape, TreeSolver
from repro.core.tree import TreeTopology

__all__ = ["find_configuration", "enumerate_insertions", "fuse_topology"]

#: Algorithm 3's FILTER gap: candidates ranked more than this far (in
#: weighted-mismatch score) behind their predecessor are dropped
THRESHOLD = 50.0

# rooted full binary tree: ("leaf", dc) | ("node", left, right)
_BinTree = tuple


def _leaf(dc: str) -> _BinTree:
    return ("leaf", dc)


def _node(left: _BinTree, right: _BinTree) -> _BinTree:
    return ("node", left, right)


def enumerate_insertions(tree: _BinTree, dc: str) -> List[_BinTree]:
    """All full binary trees obtained by hanging a new leaf *dc* off *tree*.

    Replacing any subtree ``t`` (including the root, which yields the
    NEW_ROOTED variant of Alg. 3) with ``node(leaf(dc), t)`` enumerates all
    2f−1 isomorphism classes of trees with one more leaf.
    """
    results = [_node(_leaf(dc), tree)]
    if tree[0] == "node":
        _, left, right = tree
        results.extend(_node(variant, right)
                       for variant in enumerate_insertions(left, dc))
        results.extend(_node(left, variant)
                       for variant in enumerate_insertions(right, dc))
    return results


def _tree_to_shape(tree: _BinTree) -> TreeShape:
    """Internal nodes become serializers; each leaf attaches to its parent."""
    internal: List[str] = []
    edges: List[Tuple[str, str]] = []
    attachments: List[Tuple[str, str]] = []

    def walk(node: _BinTree) -> Optional[str]:
        """Returns the serializer name for internal nodes, None for leaves."""
        if node[0] == "leaf":
            return None
        name = f"s{len(internal)}"
        internal.append(name)
        _, left, right = node
        for child in (left, right):
            child_name = walk(child)
            if child_name is None:
                attachments.append((child[1], name))
            else:
                edges.append((name, child_name))
        return name

    root = walk(tree)
    if root is None:
        raise ValueError("tree must have at least two leaves")
    return TreeShape(internal_nodes=tuple(internal), edges=tuple(edges),
                     attachments=tuple(attachments))


def find_configuration(datacenters: Sequence[str],
                       dc_sites: Dict[str, str],
                       latency: Callable[[str, str], float],
                       weights: Optional[Dict[Tuple[str, str], float]] = None,
                       beam_width: int = 10) -> SolvedTree:
    """Algorithm 3: beam search over tree shapes, returning the best solved
    configuration (the paper's M-configuration).  Serializers may sit at
    any datacenter's site, the natural serializer locations (§5.4)."""
    datacenters = list(datacenters)
    if len(datacenters) < 2:
        raise ValueError("need at least two datacenters")

    # one solver: the site-latency matrix is shared by every shape
    solver = TreeSolver(dc_sites, sorted({dc_sites[dc] for dc in datacenters}),
                        latency, weights)
    first, second, *rest = datacenters
    root = _node(_leaf(first), _leaf(second))
    beam = [(root, solver.solve(_tree_to_shape(root)))]
    for next_dc in rest:
        candidates = [(variant, solver.solve(_tree_to_shape(variant)))
                      for tree, _ in beam
                      for variant in enumerate_insertions(tree, next_dc)]
        candidates.sort(key=lambda entry: entry[1].score)
        # FILTER: drop everything after a ranking gap larger than THRESHOLD
        filtered = [candidates[0]]
        for previous, current in zip(candidates, candidates[1:]):
            if current[1].score - previous[1].score > THRESHOLD:
                break
            filtered.append(current)
            if len(filtered) >= beam_width:
                break
        beam = filtered
    return beam[0][1]


def fuse_topology(topology: TreeTopology, tolerance: float = 1e-6) -> TreeTopology:
    """Fuse directly connected serializers that share a location and have no
    artificial delay between them (§5.5): the tree need not stay binary."""
    parent: Dict[str, str] = {s: s for s in topology.serializer_sites}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in topology.edges:
        same_site = topology.serializer_sites[a] == topology.serializer_sites[b]
        no_delay = (topology.delay(a, b) <= tolerance
                    and topology.delay(b, a) <= tolerance)
        if same_site and no_delay:
            parent[find(a)] = find(b)

    representatives = sorted({find(s) for s in topology.serializer_sites})
    if len(representatives) == len(topology.serializer_sites):
        return topology
    edges = []
    delays = {}
    for a, b in topology.edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            edges.append((ra, rb))
            delay_ab = topology.delay(a, b)
            delay_ba = topology.delay(b, a)
            if delay_ab:
                delays[(ra, rb)] = delay_ab
            if delay_ba:
                delays[(rb, ra)] = delay_ba
    attachments = {dc: find(s) for dc, s in topology.attachments.items()}
    return TreeTopology(
        serializer_sites={s: topology.serializer_sites[s]
                          for s in representatives},
        edges=edges,
        attachments=attachments,
        delays=delays,
    )
