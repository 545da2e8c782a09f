"""The paper's Fig. 3 worked example, end to end (§5.1).

Four datacenters; some items replicated at {dc1, dc4}, others at
{dc3, dc4}.  The bulk transfer dc1->dc4 is slow (10 units) while dc3 and
dc4 are adjacent (1 unit).  Updates: a at dc1, then b -> c at dc3, all
interesting dc4.

If Saturn delivers a's label to dc4 *early* (the metadata path is much
shorter than the slow bulk path), serializing abc creates a false
dependency: b and c — deliverable at times ~5 and ~7 — stall behind a's
payload until ~12.  The paper's answer is the bca serialization, obtained
by artificially delaying a's label (§5.4).  This test reproduces both
behaviours with the real solver in the loop.
"""

import pytest

from repro.config.solver import optimize_delays
from repro.core.replication import ReplicationMap
from repro.core.tree import TreeTopology
from repro.harness.runner import MetricsHub
from repro.protocols import Deployment, protocol_named
from repro.sim.clock import ClockFactory
from repro.sim.engine import Simulator
from repro.sim.network import LatencyModel, Network
from repro.sim.rng import RngRegistry

SITES = ["d1", "d2", "d3", "d4"]


def latency_model():
    """Metadata links are short hops; the *direct* d1-d4 path (which the
    bulk service uses) is long — the paper's 'bulk data is not necessarily
    sent through the shortest path' situation."""
    model = LatencyModel(local_latency=0.05)
    model.set("d1", "d2", 1.0)
    model.set("d2", "d3", 1.0)
    model.set("d3", "d4", 1.0)
    model.set("d1", "d3", 2.0)
    model.set("d2", "d4", 2.0)
    model.set("d1", "d4", 10.0)  # slow bulk path
    return model


def build(delays):
    sim = Simulator()
    rng = RngRegistry(seed=4)
    network = Network(sim, latency_model=latency_model())
    replication = ReplicationMap(SITES)
    replication.set_group("gX", ["d1", "d4"])  # item of update a
    replication.set_group("gY", ["d3", "d4"])  # items of updates b, c
    topology = TreeTopology(
        serializer_sites={"s1": "d1", "s2": "d2", "s3": "d3", "s4": "d4"},
        edges=[("s1", "s2"), ("s2", "s3"), ("s3", "s4")],
        attachments={"d1": "s1", "d2": "s2", "d3": "s3", "d4": "s4"},
        delays=delays)
    metrics = MetricsHub(sim)
    clocks = ClockFactory(sim, rng, max_skew=0.0)
    site = Deployment(sim, network, protocol_named("saturn"), replication,
                      SITES, clocks.create, metrics,
                      dict(num_partitions=1, sink_batch_period=0.25,
                           sink_heartbeat_period=0, bulk_heartbeat_period=0))
    site.attach(topology)
    dcs = site.datacenters
    for dc in dcs.values():
        dc.start()
    return sim, dcs, metrics, topology


def run_scenario(delays):
    sim, dcs, metrics, topology = build(delays)
    visible_at = {}
    for site in SITES:
        original = dcs[site].revealed

        def hook(label, created_at, mode, site=site, original=original):
            visible_at[(label.target, site)] = sim.now
            original(label, created_at, mode)

        dcs[site].revealed = hook
        dcs[site].proxy.dc = dcs[site]

    def write(dc, key, at):
        def _go():
            partition = dcs[dc].store.partition_for(key)
            dcs[dc].gears[partition.index].update(key, 8, None)
        sim.schedule_at(at, _go)

    write("d1", "gX:a", 2.0)   # a
    write("d3", "gY:b", 4.0)   # b
    write("d3", "gY:c", 6.0)   # c (same origin after b: causally ordered)
    sim.run(until=60.0)
    return visible_at


def test_premature_labels_create_false_dependencies():
    """Without artificial delays, a's label reaches dc4 in ~3 units while
    its payload needs 10: b and c stall behind it (the abc serialization
    of §5.1)."""
    visible = run_scenario(delays={})
    assert visible[("gX:a", "d4")] >= 12.0
    # false dependency: b and c forced to wait for a's bulk transfer
    assert visible[("gY:b", "d4")] >= 11.0
    assert visible[("gY:c", "d4")] >= 11.0


def test_solver_delays_restore_bca_serialization():
    """The Definition-2 solver adds ~7 units on d1's edge so a's label
    arrives with its payload; b and c become visible as soon as their
    1-unit bulk transfer completes."""
    def lat(a, b):
        return 0.0 if a == b else latency_model().get(a, b)

    base = build({})[3]
    weights = {(i, j): 1.0 for i in SITES for j in SITES if i != j}
    # the d1->d4 path matters most in the example
    weights[("d1", "d4")] = 5.0
    delays = optimize_delays(base, {s: s for s in SITES}, lat, weights)
    assert delays, "the solver must add delays for the slow bulk path"
    visible = run_scenario(delays)
    # data freshness of a unchanged (payload-bound)
    assert visible[("gX:a", "d4")] == pytest.approx(12.0, abs=2.0)
    # b and c no longer blocked: visible right after their bulk transfer
    assert visible[("gY:b", "d4")] <= 8.0
    assert visible[("gY:c", "d4")] <= 9.5
