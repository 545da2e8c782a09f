#!/usr/bin/env python
"""Genuine partial replication and client migration.

Seven EC2 regions, data placed with the exponential correlation pattern
(nearby datacenters share a lot, distant ones almost nothing).  The example
shows the two properties §2 promises:

1. **Genuine partial replication** — each datacenter's remote proxy only
   ever processes labels for items it replicates (plus tiny heartbeats);
   compare the per-datacenter label counts against full replication.
2. **Cheap migration** — a client reading data its datacenter does not
   replicate migrates with a migration label instead of waiting for global
   stabilization; remote reads stay within a few WAN round trips.

Run:  python examples/partial_replication.py
"""

from repro.config.latencies import EC2_REGIONS
from repro.harness.runner import Scale, run_once
from repro.harness.report import format_table
from repro.workloads.synthetic import SyntheticWorkload

SCALE = Scale(duration=800.0, warmup=200.0, clients_per_dc=6)


def main() -> None:
    rows = []
    clusters = {}
    for name, workload in (
            ("full", SyntheticWorkload(correlation="full",
                                       remote_read_fraction=0.1)),
            ("exponential", SyntheticWorkload(correlation="exponential",
                                              remote_read_fraction=0.1))):
        results = run_once("saturn", workload, SCALE)
        clusters[name] = results.cluster
        degree = results.cluster.replication.average_replication_degree()
        remote_reads = results.ops.counts().get("remote_read", 0)
        rows.append([
            name, f"{degree:.2f}", f"{results.throughput:.0f}",
            remote_reads,
            f"{results.ops.mean_latency('remote_read'):.0f}"
            if remote_reads else "-",
        ])
    print(format_table(
        ["placement", "avg replicas", "throughput ops/s",
         "remote reads", "remote read ms"], rows,
        title="Saturn under full vs partial geo-replication (7 regions)"))

    print()
    print("Labels processed per datacenter (genuine partial replication:")
    print("metadata volume follows the data each site replicates):")
    header = ["placement"] + list(EC2_REGIONS)
    label_rows = []
    for name, cluster in clusters.items():
        label_rows.append([name] + [
            cluster.datacenters[dc].proxy.labels_processed
            for dc in EC2_REGIONS])
    print(format_table(header, label_rows))


if __name__ == "__main__":
    main()
