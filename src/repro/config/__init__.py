"""Saturn configuration: Table 1 latencies, the Definition 1/2 objective,
the per-tree solver, and the Algorithm 3 generator."""

from repro.config.latencies import EC2_LATENCIES, EC2_REGIONS, ec2_latency, ec2_latency_model
from repro.config.objective import (optimal_visibility_time,
                                    pair_weights_from_replication,
                                    weighted_mismatch)
from repro.config.placement import (enumerate_insertions, find_configuration,
                                    fuse_topology)
from repro.config.solver import SolvedTree, TreeShape, TreeSolver, optimize_delays

__all__ = [
    "EC2_LATENCIES", "EC2_REGIONS", "ec2_latency", "ec2_latency_model",
    "optimal_visibility_time", "pair_weights_from_replication",
    "weighted_mismatch", "enumerate_insertions", "find_configuration",
    "fuse_topology", "SolvedTree", "TreeShape", "TreeSolver", "optimize_delays",
]
