#!/usr/bin/env python
"""Fault tolerance and online reconfiguration (§6).

Timeline of one run:

* 0 ms      — Saturn runs on a star tree rooted in Ireland (C1);
* 600 ms    — every serializer of C1 fail-stops; the beacon detectors
              notice within ~150 ms, park the sinks and fall back to
              timestamp order (visibility degrades, availability stays);
* 1600 ms   — operators install a new tree (C2) through the failure-path
              epoch change: sinks replay what C1 swallowed, proxies return
              to tree order at the first fresh C2 label that is stable,
              detectors re-attach; visibility recovers.

The example prints visibility latency per phase and verifies causal
consistency held throughout.

Run:  python examples/fault_tolerance.py
"""

from repro.core.tree import TreeTopology
from repro.harness.runner import Cluster, ClusterConfig
from repro.harness.report import format_table
from repro.metrics.stats import mean
from repro.verify.checker import ExecutionLog
from repro.workloads.synthetic import SyntheticWorkload

SITES = ("I", "F", "T")
OUTAGE_AT = 600.0
RECONFIGURE_AT = 1600.0
END_AT = 2600.0


def main() -> None:
    workload = SyntheticWorkload(correlation="full", read_ratio=0.8)
    c1 = TreeTopology.star("I", {s: s for s in SITES})
    c2 = TreeTopology(
        serializer_sites={"s0": "I", "s1": "F", "s2": "T"},
        edges=[("s0", "s1"), ("s1", "s2")],
        attachments={"I": "s0", "F": "s1", "T": "s2"})
    cluster = Cluster(
        ClusterConfig(system="saturn", sites=SITES, clients_per_dc=6,
                      saturn_topology=c1, beacon_period=25.0,
                      dc_params=dict(beacon_timeout=100.0,
                                     stabilization_wait=50.0)),
        workload)
    log = ExecutionLog(cluster.replication)
    cluster.attach_execution_log(log)
    manager = cluster.manager

    phases = []  # (phase name, [latency samples])
    samples = []
    original_hook = cluster.metrics.record_visibility

    def record(origin, dest, latency):
        samples.append((cluster.sim.now, latency))
        original_hook(origin, dest, latency)

    cluster.metrics.record_visibility = record
    for dc in cluster.datacenters.values():
        dc.metrics = cluster.metrics

    cluster.sim.schedule(OUTAGE_AT, lambda: cluster.service.fail_tree(epoch=0))
    cluster.sim.schedule(RECONFIGURE_AT,
                         lambda: manager.reconfigure(c2, emergency=True))
    cluster.run(duration=END_AT, warmup=100.0)

    windows = [("healthy (C1 tree)", 100.0, OUTAGE_AT),
               ("outage (ts fallback)", OUTAGE_AT + 200.0, RECONFIGURE_AT),
               ("recovered (C2 tree)", RECONFIGURE_AT + 400.0, END_AT)]
    rows = []
    for name, start, end in windows:
        window = [lat for at, lat in samples if start <= at < end]
        rows.append([name, len(window),
                     f"{mean(window):.1f}" if window else "-"])
    print(format_table(["phase", "updates made visible",
                        "mean visibility ms"], rows,
                       title="Saturn outage and recovery timeline"))
    print()
    violations = log.check()
    print(f"reconfiguration complete: {manager.complete()}")
    print(f"causal violations across the whole run: {len(violations)}")
    assert not violations


if __name__ == "__main__":
    main()
