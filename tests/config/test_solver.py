"""Per-tree solver: placement and LP-optimal artificial delays."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.config.objective import weighted_mismatch
from repro.config.placement import _tree_to_shape, enumerate_insertions
from repro.config.solver import TreeShape, TreeSolver, optimize_delays
from repro.core.tree import TreeTopology


def lat(a, b):
    table = {frozenset(("A", "B")): 10.0, frozenset(("B", "C")): 10.0,
             frozenset(("A", "C")): 80.0}
    return 0.0 if a == b else table[frozenset((a, b))]


SITES = {"A": "A", "B": "B", "C": "C"}


def chain_topology():
    return TreeTopology(
        serializer_sites={"s0": "A", "s1": "B", "s2": "C"},
        edges=[("s0", "s1"), ("s1", "s2")],
        attachments={"A": "s0", "B": "s1", "C": "s2"})


def test_tree_shape_to_topology():
    shape = TreeShape(internal_nodes=("s0",), edges=(),
                      attachments=(("A", "s0"), ("B", "s0")))
    topo = shape.to_topology({"s0": "A"})
    assert topo.attachments == {"A": "s0", "B": "s0"}
    assert topo.serializer_sites == {"s0": "A"}


def test_optimize_delays_fills_slow_bulk_path():
    """Bulk A->C is 80 ms but the metadata path is 20 ms: with weights
    favouring the A->C and B->C paths the solver delays A's labels.  These
    are the ablation-artificial-delays experiment's inputs, and its LP has
    this one optimum."""
    weights = {("A", "C"): 3.0, ("C", "A"): 3.0,
               ("B", "C"): 2.0, ("C", "B"): 2.0,
               ("A", "B"): 1.0, ("B", "A"): 1.0}
    delays = optimize_delays(chain_topology(), SITES, lat, weights)
    assert delays == {("s0", "s1"): 60.0, ("s1", "s0"): 60.0}


def test_optimize_delays_never_negative():
    delays = optimize_delays(chain_topology(), SITES, lat)
    assert all(v >= 0 for v in delays.values())


def test_delays_never_worsen_objective():
    topo = chain_topology()
    weights = {("A", "C"): 3.0, ("C", "A"): 3.0,
               ("B", "C"): 2.0, ("C", "B"): 2.0,
               ("A", "B"): 1.0, ("B", "A"): 1.0}
    before = weighted_mismatch(topo, SITES, lat, weights)
    delays = optimize_delays(topo, SITES, lat, weights)
    after = weighted_mismatch(topo.with_delays(delays), SITES, lat, weights)
    assert after <= before + 1e-6


def test_optimize_delays_no_edges():
    star = TreeTopology.star("A", SITES)
    assert optimize_delays(star, SITES, lat) == {}


def test_solve_tree_places_serializers_at_good_sites():
    shape = TreeShape(
        internal_nodes=("s0", "s1"), edges=(("s0", "s1"),),
        attachments=(("A", "s0"), ("B", "s0"), ("C", "s1")))
    solved = TreeSolver(SITES, ["A", "B", "C"], lat).solve(shape)
    assert solved.score >= 0
    # with a perfect metric the solver should not leave both serializers
    # at the same worst-case site
    sites_used = set(solved.topology.serializer_sites.values())
    assert sites_used <= {"A", "B", "C"}


def test_solve_tree_score_matches_objective():
    shape = TreeShape(
        internal_nodes=("s0",), edges=(),
        attachments=(("A", "s0"), ("B", "s0"), ("C", "s0")))
    solved = TreeSolver(SITES, ["A", "B", "C"], lat).solve(shape)
    recomputed = weighted_mismatch(solved.topology, SITES, lat)
    assert solved.score == pytest.approx(recomputed)


def _random_instance(seed):
    """A random shape and placement over 3-6 sites, integral metadata
    latencies, bulk latencies that ignore the triangle inequality, and
    weights on a dyadic grid (some zero)."""
    rng = random.Random(seed)
    names = "ABCDEF"[:rng.randint(3, 6)]
    tree = ("node", ("leaf", names[0]), ("leaf", names[1]))
    for dc in names[2:]:
        tree = rng.choice(enumerate_insertions(tree, dc))
    shape = _tree_to_shape(tree)
    meta, bulk, weights = {}, {}, {}
    for a in names:
        for b in names:
            if a < b:
                meta[(a, b)] = meta[(b, a)] = float(rng.randint(5, 120))
            if a != b:
                bulk[(a, b)] = float(rng.randint(5, 300))
                weights[(a, b)] = rng.choice((0.0, 0.5, 1.0, 1.5, 2.0, 3.0))
    topology = shape.to_topology(
        {node: rng.choice(names) for node in shape.internal_nodes})
    return (topology, {dc: dc for dc in names},
            lambda a, b: 0.0 if a == b else meta[(a, b)],
            lambda a, b: 0.0 if a == b else bulk[(a, b)], weights)


def _highs_objective(topology, dc_sites, latency, bulk, weights):
    """min Σ w_p u_p, u_p >= |Σ δ(path) − gap_p|, δ >= 0, via HiGHS."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    directed = [edge for a, b in topology.edges for edge in ((a, b), (b, a))]
    pairs = []
    for i in topology.datacenters:
        for j in topology.datacenters:
            if i != j and weights[(i, j)]:
                path = topology.serializer_path(i, j)
                pairs.append((weights[(i, j)],
                              bulk(i, j) - topology.path_latency(
                                  i, j, latency, dc_sites),
                              [directed.index(hop)
                               for hop in zip(path, path[1:])]))
    width = len(directed) + len(pairs)
    a_ub, b_ub = [], []
    for p, (_, gap, edges) in enumerate(pairs):
        for sign in (1.0, -1.0):
            row = [0.0] * width
            for e in edges:
                row[e] = sign
            row[len(directed) + p] = -1.0
            a_ub.append(row)
            b_ub.append(sign * gap)
    result = linprog([0.0] * len(directed) + [w for w, _, _ in pairs],
                     A_ub=a_ub, b_ub=b_ub, bounds=[(0, None)] * width,
                     method="highs")
    assert result.success
    return result.fun


def test_delays_match_highs_on_random_instances():
    """The exact simplex reaches HiGHS's optimum, never goes negative and
    never does worse than no delays, on instances that need delays."""
    delayed = 0
    for seed in range(60):
        topology, dc_sites, latency, bulk, weights = _random_instance(seed)
        delays = optimize_delays(topology, dc_sites, latency, weights, bulk)
        objective = weighted_mismatch(topology.with_delays(delays), dc_sites,
                                      latency, weights, bulk)
        assert objective == pytest.approx(
            _highs_objective(topology, dc_sites, latency, bulk, weights),
            abs=1e-9)
        assert all(value >= 0 for value in delays.values())
        assert objective <= weighted_mismatch(topology, dc_sites, latency,
                                              weights, bulk) + 1e-9
        delayed += bool(delays)
    assert delayed >= 20


def _reference_placement(shape, dc_sites, candidate_sites, latency):
    """The tree-building placement the table version replaced."""
    def cost(sites):
        topology = shape.to_topology(sites)
        total = 0.0
        for i in topology.datacenters:
            for j in topology.datacenters:
                if i != j:
                    gap = (topology.path_latency(i, j, latency, dc_sites)
                           - latency(dc_sites[i], dc_sites[j]))
                    total += gap if gap > 0 else -gap * 0.3
        return total

    attached = {}
    for dc, node in shape.attachments:
        attached.setdefault(node, []).append(dc)
    sites = {node: dc_sites[sorted(attached[node])[0]] if node in attached
             else candidate_sites[0] for node in shape.internal_nodes}
    best = cost(sites)
    for _ in range(4):
        improved = False
        for node in shape.internal_nodes:
            current = sites[node]
            for candidate in candidate_sites:
                if candidate != current:
                    sites[node] = candidate
                    trial = cost(sites)
                    if trial < best - 1e-9:
                        best, current, improved = trial, candidate, True
                    else:
                        sites[node] = current
        if not improved:
            break
    return sites, best


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 6).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 2 * n), min_size=n - 2, max_size=n - 2),
    st.lists(st.floats(1.0, 150.0, allow_subnormal=False),
             min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))))
def test_table_placement_is_the_tree_placement(case):
    """Same sites and a bit-identical cost as building a topology per
    candidate placement, on every shape enumerate_insertions reaches."""
    choices, values = case
    names = "ABCDEF"[:len(choices) + 2]
    tree = ("node", ("leaf", names[0]), ("leaf", names[1]))
    for dc, choice in zip(names[2:], choices):
        variants = enumerate_insertions(tree, dc)
        tree = variants[choice % len(variants)]
    shape = _tree_to_shape(tree)
    table = dict(zip([(a, b) for a in names for b in names if a < b], values))

    def latency(a, b):
        return 0.0 if a == b else table[(min(a, b), max(a, b))]

    dc_sites = {dc: dc for dc in names}
    solver = TreeSolver(dc_sites, list(names), latency)
    at, cost, _ = solver._place(shape)
    sites, reference = _reference_placement(shape, dc_sites, list(names),
                                            latency)
    assert dict(zip(shape.internal_nodes,
                    (solver.sites[k] for k in at))) == sites
    assert cost.hex() == reference.hex()
