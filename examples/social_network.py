#!/usr/bin/env python
"""Social-network scenario (the paper's §7.4 motivation).

A synthetic scale-free friendship graph is partitioned across the seven
EC2 regions with the bounded SPAR partitioner, and clients replay a
Benevenuto-style operation mix (browsing-dominated, friend-biased).  The
example compares Saturn against GentleRain and Cure and shows why bounded
partial replication favours Saturn: fewer replicas mean more client
migrations, which Saturn serves with migration labels instead of global
stabilization waits.

Run:  python examples/social_network.py
"""

from repro.config.latencies import EC2_REGIONS
from repro.harness.runner import Scale, run_once
from repro.harness.report import format_table
from repro.workloads.facebook import FacebookWorkload

SCALE = Scale(duration=800.0, warmup=200.0, facebook_clients_per_dc=24)


def main() -> None:
    rows = []
    for max_replicas in (2, 4):
        for system in ("eventual", "saturn", "gentlerain", "cure"):
            workload = FacebookWorkload(num_users=1000,
                                        max_replicas=max_replicas)
            results = run_once(system, workload, SCALE,
                               clients_per_dc=SCALE.facebook_clients_per_dc)
            counts = results.ops.counts()
            rows.append([
                max_replicas, system, f"{results.throughput:.0f}",
                counts.get("remote_read", 0),
                f"{results.visibility.mean():.1f}",
            ])
    print(format_table(
        ["max replicas", "system", "throughput ops/s", "remote reads",
         "mean visibility ms"],
        rows,
        title="Facebook-style workload across 7 EC2 regions "
              "(SPAR-partitioned, bounded replication)"))
    print()
    print("Lower replica bounds force more cross-datacenter reads; Saturn's")
    print("migration labels keep them cheap while GentleRain/Cure block on")
    print("their stabilization frontiers.")


if __name__ == "__main__":
    main()
