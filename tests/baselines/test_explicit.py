"""Explicit dependency checking (COPS-style): correctness under full
replication, unbounded metadata without the prune, and the paper's §7.3.1
claim — the transitivity prune is *unsafe* under partial geo-replication."""

import pytest

from repro.baselines.explicit import DepContext, explicit_merge
from repro.core.replication import ReplicationMap
from repro.datacenter.messages import ClientUpdate, UpdateReply
from repro.harness.runner import Cluster, ClusterConfig
from repro.sim.process import Process
from repro.verify.checker import ExecutionLog
from repro.workloads.synthetic import SyntheticWorkload


def run_checked(system, correlation="full", **workload_kwargs):
    workload = SyntheticWorkload(read_ratio=0.7, keys_per_group=4,
                                 groups_per_dc=2, correlation=correlation,
                                 **workload_kwargs)
    cluster = Cluster(ClusterConfig(system=system, sites=("I", "F", "T"),
                                    clients_per_dc=4), workload)
    log = ExecutionLog(cluster.replication)
    cluster.attach_execution_log(log)
    results = cluster.run(duration=600.0, warmup=100.0)
    return cluster, results, log


# -- context merge -------------------------------------------------------------

def test_merge_union():
    a = DepContext(deps=frozenset({("k1", (1.0, "A/g0"))}))
    b = DepContext(deps=frozenset({("k2", (2.0, "B/g0"))}))
    merged = explicit_merge(a, b)
    assert len(merged) == 2
    assert not merged.replace


def test_merge_replace_collapses():
    a = DepContext(deps=frozenset({("k1", (1.0, "A/g0")),
                                   ("k2", (2.0, "B/g0"))}))
    b = DepContext(deps=frozenset({("k3", (3.0, "A/g0"))}), replace=True)
    merged = explicit_merge(a, b)
    assert merged.deps == b.deps
    assert not merged.replace  # replace is one-shot


def test_merge_none_handling():
    a = DepContext(deps=frozenset({("k1", (1.0, "A/g0"))}))
    assert explicit_merge(None, a).deps == a.deps
    assert explicit_merge(a, None) is a
    assert explicit_merge(None, None) is None


# -- system behaviour -----------------------------------------------------------

def test_cops_causal_under_full_replication():
    _, results, log = run_checked("cops")
    assert results.ops_completed > 500
    assert log.check() == []


def test_cops_noprune_causal_everywhere():
    for correlation in ("full", "degree"):
        kwargs = {"degree": 2} if correlation == "degree" else {}
        _, results, log = run_checked("cops-noprune", correlation,
                                      **kwargs)
        assert log.check() == []


def test_prune_keeps_dependency_lists_small():
    cluster, _, _ = run_checked("cops")
    sizes = [dc.mean_dep_list_size() for dc in cluster.datacenters.values()]
    assert max(sizes) < 10


def test_noprune_dependency_lists_grow_unboundedly():
    """The paper: without the prune, client dependency lists can grow to
    the entire database — here they dwarf the pruned case."""
    pruned, _, _ = run_checked("cops")
    unpruned, _, _ = run_checked("cops-noprune")
    pruned_mean = sum(dc.mean_dep_list_size()
                      for dc in pruned.datacenters.values()) / 3
    unpruned_mean = sum(dc.mean_dep_list_size()
                        for dc in unpruned.datacenters.values()) / 3
    assert unpruned_mean > 10 * pruned_mean


def test_noprune_metadata_costs_throughput():
    _, pruned_results, _ = run_checked("cops")
    _, unpruned_results, _ = run_checked("cops-noprune")
    assert unpruned_results.throughput < 0.7 * pruned_results.throughput


def test_visibility_near_optimal():
    """No stabilization rounds: dependency checks happen at arrival."""
    _, results, _ = run_checked("cops")
    assert results.visibility.mean("I", "F") < 30.0


# -- the §7.3.1 unsafety scenario -------------------------------------------------

class Driver(Process):
    """Issues a scripted sequence of updates, carrying the context along."""

    def __init__(self, sim, name="driver"):
        super().__init__(sim, name)
        self.context = None
        self.versions = []

    def receive(self, sender, message):
        if isinstance(message, UpdateReply):
            self.context = explicit_merge(self.context, message.label)
            self.versions.append(message.version)


def _unsafety_cluster(system):
    """kW lives on {A, C}; kX on {A, B}; kY on {B, C}.  A client writes
    w0(kW)@A, w1(kX)@B, w2(kY)@B.  With the prune, w2's explicit deps are
    just {w1}; C does not replicate kX, so w2 becomes visible at C over
    the fast B->C link long before w0 arrives over the slow A->C link —
    a causal violation the full dependency list would have prevented."""
    from repro.core.replication import ReplicationMap
    from repro.harness.runner import MetricsHub
    from repro.sim.clock import ClockFactory
    from repro.sim.cpu import CostModel
    from repro.sim.engine import Simulator
    from repro.sim.network import LatencyModel, Network
    from repro.sim.rng import RngRegistry
    from repro.baselines.explicit import ExplicitDatacenter

    sim = Simulator()
    model = LatencyModel(local_latency=0.25)
    model.set("A", "B", 10.0)
    model.set("B", "C", 5.0)       # fast
    model.set("A", "C", 120.0)     # slow
    network = Network(sim, latency_model=model)
    replication = ReplicationMap(["A", "B", "C"])
    replication.set_group("gW", ["A", "C"])
    replication.set_group("gX", ["A", "B"])
    replication.set_group("gY", ["B", "C"])
    clocks = ClockFactory(sim, RngRegistry(seed=2), max_skew=0.1)
    log = ExecutionLog(replication)
    dcs = {}
    for site in ("A", "B", "C"):
        dc = ExplicitDatacenter(sim, site, site, replication, CostModel(),
                                clocks.create(),
                                prune_on_write=(system == "cops"),
                                execution_log=log)
        dc.attach_network(network)
        network.place(dc.name, site)
        dcs[site] = dc
    driver = Driver(sim)
    driver.attach_network(network)
    network.place(driver.name, "A")
    return sim, dcs, driver, log


@pytest.mark.parametrize("system,expect_violation", [
    ("cops", True),          # prune drops the w0 dependency at C
    ("cops-noprune", False), # full list blocks w2 until w0 arrives
])
def test_transitivity_prune_unsafe_under_partial_replication(
        system, expect_violation):
    sim, dcs, driver, log = _unsafety_cluster(system)

    def write(dc, key, at):
        def _go():
            dcs[dc].receive(driver.name,
                            ClientUpdate("driver", key, 8, driver.context))
        sim.schedule_at(at, _go)

    write("A", "gW:0", 1.0)    # w0
    write("B", "gX:0", 30.0)   # w1 (client hopped to B; deps include w0)
    write("B", "gY:0", 60.0)   # w2 (deps pruned to {w1} under COPS)
    sim.run(until=400.0)

    # register the client's true causal pasts with the checker
    w0, w1, w2 = driver.versions
    for version in (w0, w1, w2):   # one session: w2's past is {w0, w1}
        log.record_update_deps("driver", version)
    violations = [v for v in log.check() if v.kind == "causal-order"]
    if expect_violation:
        assert violations, "the pruned chain must break causality at C"
        assert violations[0].dc == "C"
        # and indeed w2 surfaced at C long before w0 could arrive
        assert dcs["C"].store.get("gY:0") is not None
    else:
        assert violations == []
        # w2 was blocked at C until w0's slow payload arrived
        assert dcs["C"].store.get("gW:0") is not None
