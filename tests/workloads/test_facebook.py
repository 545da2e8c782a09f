"""Facebook-style workload: graph generation, partitioning, op mix."""

import pytest

from repro.config.latencies import EC2_REGIONS, ec2_latency
from repro.sim.rng import RngRegistry
from repro.workloads.facebook import (FacebookWorkload, OPERATION_MIX,
                                      generate_social_graph)
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
