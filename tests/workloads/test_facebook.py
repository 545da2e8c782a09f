"""Facebook-style workload: graph generation, partitioning, op mix."""

import tracemalloc

import pytest

from repro.config.latencies import EC2_REGIONS, ec2_latency
from repro.core.tree import TreeTopology
from repro.harness.runner import Cluster, ClusterConfig
from repro.sim.rng import RngRegistry
from repro.workloads.facebook import (KEYS_PER_USER, OPERATION_MIX,
                                      FacebookWorkload, generate_social_graph)
from repro.workloads.ops import ReadOp, RemoteReadOp, UpdateOp


def test_operation_mix_sums_to_one():
    assert sum(share for _, share, _ in OPERATION_MIX) == pytest.approx(1.0)


def test_graph_density_matches_attachment():
    rng = RngRegistry(seed=5)
    adjacency = generate_social_graph(500, 7, rng)
    edges = sum(len(friends) for friends in adjacency.values()) / 2
    # BA graph: ~attachment edges per added node
    assert 0.8 * 500 * 7 <= edges <= 1.2 * 500 * 7


def test_graph_is_symmetric_and_loop_free():
    adjacency = generate_social_graph(200, 5, RngRegistry(seed=5))
    for user, friends in adjacency.items():
        assert user not in friends
        for friend in friends:
            assert user in adjacency[friend]


def test_graph_rejects_tiny_n():
    with pytest.raises(ValueError):
        generate_social_graph(5, 7, RngRegistry(seed=1))


def test_graph_has_skewed_degree():
    adjacency = generate_social_graph(1000, 5, RngRegistry(seed=5))
    degrees = sorted((len(f) for f in adjacency.values()), reverse=True)
    assert degrees[0] > 5 * degrees[len(degrees) // 2]


def test_replication_map_respects_bounds():
    workload = FacebookWorkload(num_users=300, min_replicas=2, max_replicas=4)
    replication = workload.replication_map(EC2_REGIONS, ec2_latency,
                                           RngRegistry(seed=5))
    for group, replicas in replication.groups().items():
        assert 2 <= len(replicas) <= 4


def test_masters_reasonably_balanced():
    workload = FacebookWorkload(num_users=700)
    workload.replication_map(EC2_REGIONS, ec2_latency, RngRegistry(seed=5))
    loads = {}
    for user, master in workload.masters.items():
        loads[master] = loads.get(master, 0) + 1
    assert max(loads.values()) <= 1.25 * (700 / len(EC2_REGIONS))


def test_user_data_replicated_at_master():
    workload = FacebookWorkload(num_users=300)
    replication = workload.replication_map(EC2_REGIONS, ec2_latency,
                                           RngRegistry(seed=5))
    from repro.workloads.partitioning import user_group
    for user, master in workload.masters.items():
        assert master in replication.replicas_of_group(user_group(user))


def test_client_generator_requires_replication_map():
    workload = FacebookWorkload(num_users=300)
    with pytest.raises(RuntimeError):
        workload.client_generator("I", None, RngRegistry(seed=1),
                                  ec2_latency, "s")


def test_generator_produces_valid_ops():
    workload = FacebookWorkload(num_users=300)
    rng = RngRegistry(seed=5)
    replication = workload.replication_map(EC2_REGIONS, ec2_latency, rng)
    generator = workload.client_generator("I", replication, rng, ec2_latency,
                                          "client-x")
    ops = [generator(None) for _ in range(1000)]
    kinds = {type(op) for op in ops}
    assert ReadOp in kinds
    assert UpdateOp in kinds
    for op in ops:
        if isinstance(op, (ReadOp, UpdateOp)):
            assert "I" in replication.replicas(op.key)
        elif isinstance(op, RemoteReadOp):
            assert "I" not in replication.replicas(op.key)
            assert op.target_dc in replication.replicas(op.key)


def test_lower_replica_cap_creates_more_remote_reads():
    counts = {}
    for max_replicas in (2, 5):
        workload = FacebookWorkload(num_users=400, max_replicas=max_replicas)
        rng = RngRegistry(seed=5)
        replication = workload.replication_map(EC2_REGIONS, ec2_latency, rng)
        remote = 0
        for dc in EC2_REGIONS:
            generator = workload.client_generator(dc, replication, rng,
                                                  ec2_latency, f"c-{dc}")
            remote += sum(1 for _ in range(500)
                          if isinstance(generator(None), RemoteReadOp))
        counts[max_replicas] = remote
    assert counts[2] > counts[5]


def test_write_share_in_expected_range():
    workload = FacebookWorkload(num_users=300)
    rng = RngRegistry(seed=5)
    replication = workload.replication_map(EC2_REGIONS, ec2_latency, rng)
    generator = workload.client_generator("I", replication, rng, ec2_latency,
                                          "client-w")
    ops = [generator(None) for _ in range(3000)]
    writes = sum(1 for op in ops if isinstance(op, UpdateOp))
    # nominal write share is 18% (edit_own + write_friend), minus the
    # write_friend fallbacks that turn into reads
    assert 0.08 <= writes / len(ops) <= 0.25


def test_benchmark_import_path_builds_the_materialized_workload():
    """``bench/`` builds the open-loop workload through the old streaming
    path; it must get the symmetric, balanced SPAR placement."""
    from repro.workloads.streaming import StreamingFacebookWorkload
    workload = StreamingFacebookWorkload(num_users=2000, min_replicas=2,
                                         max_replicas=3)
    workload.replication_map(("I", "F", "T"), ec2_latency,
                             RngRegistry(seed=7))
    assert type(workload) is FacebookWorkload
    adjacency = workload.adjacency
    for user, friends in adjacency.items():
        for friend in friends:
            assert user in adjacency[friend]
    loads = {}
    for master in workload.masters.values():
        loads[master] = loads.get(master, 0) + 1
    assert max(loads.values()) <= int(2000 / 3 * 1.10) + 1


def _op_stream(workload):
    """(ops completed, every op drawn as (sim time, client, repr)) of a
    200 ms saturn I/F/T star run of *workload*."""
    sites = ("I", "F", "T")
    config = ClusterConfig(system="saturn", sites=sites, clients_per_dc=2,
                           seed=3,
                           saturn_topology=TreeTopology.star(
                               "I", {s: s for s in sites}))
    cluster = Cluster(config, workload)
    drawn = []
    for client in cluster.clients:
        def wrap(inner, client_id):
            def _record(c):
                op = inner(c)
                drawn.append((c.sim.now, client_id, repr(op)))
                return op
            return _record
        client.workload = wrap(client.workload, client.client_id)
    result = cluster.run(duration=200.0, warmup=50.0)
    return result.ops_completed, drawn


def test_replication_map_restarts_the_user_assignment():
    """A second cluster that builds its replication map from the same
    workload object gets the users, and so the ops, that a fresh
    workload's clients would."""
    fresh_ops, fresh_stream = _op_stream(FacebookWorkload())
    reused = FacebookWorkload()
    _op_stream(reused)
    reused_ops, reused_stream = _op_stream(reused)
    assert reused_ops == fresh_ops > 0
    assert reused_stream == fresh_stream


def test_a_client_generator_costs_references_over_shared_user_records():
    """The open-loop pool outgrows the graph (3,283 clients over 2,000
    users at 10,000 ops/s/DC), so a spawned client's generator holds
    references only (≈ 110 B; the closure generator cost 1,541 B here),
    over user records (≈ 600 B each) that the first client builds once
    and every client of a user shares."""
    workload = FacebookWorkload(num_users=2000, min_replicas=2,
                                max_replicas=3)
    rng = RngRegistry(seed=7)
    sites = ("I", "F", "T")
    replication = workload.replication_map(sites, ec2_latency, rng)
    names = [f"client-{index}" for index in range(3000)]
    for name in names:
        rng.stream(name)        # the streams are not the generator's bytes

    def make(index):
        return workload.client_generator(sites[index % 3], replication, rng,
                                         ec2_latency, names[index])

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        generators = [make(0)]              # builds every user's record
        built = tracemalloc.get_traced_memory()[0]
        generators += [make(index) for index in range(1, len(names))]
        end = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (built - start) / 2000 <= 800
    assert (end - built) / (len(names) - 1) <= 400
    by_user = {}
    for generator in generators:
        by_user.setdefault(generator.me, []).append(generator)
    assert len(by_user) == 2000
    a, b = by_user[0][:2]
    assert a is not b and a.record is b.record
    assert a.record.friends == tuple(sorted(workload.adjacency[0]))
    assert a.record.keys == tuple(f"gu0:{i}" for i in range(KEYS_PER_USER))
