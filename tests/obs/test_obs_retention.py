"""What leave-on tracing may cost and must not change.

* Retention: a label event is a fixed-size record packed into the log's
  ``bytearray`` chunks (at most 48 bytes each, interned atoms included),
  and the rare typed tuples hold atoms only, which the cyclic collector stops
  tracking after their first collection.  A hook that smuggles a dict, a
  list or an object into a record would make every later collection walk
  O(events) containers again — the cost the log was introduced to remove.
* Collections: what a hook allocates and keeps counts toward gen-0's
  threshold even when the collector never walks it, so a run with obs on
  must collect as often as the same run with obs off.
* Transparency, jointly: obs, the HazardMonitor and the overload chain are
  each pinned against the all-off default elsewhere; here all three are on
  at once and the execution must still be the overload-only one.
* One write path: the metrics of that run are a fold of the tracer's log
  alone, overload gauges and admission counts included.
"""

import gc
import tracemalloc

import pytest

from repro.analysis.runtime import HazardMonitor
from repro.core.label import Label, LabelType
from repro.datacenter.overload import OverloadConfig
from repro.harness.runner import Cluster, ClusterConfig
from repro.obs import LabelTracer
from repro.workloads.synthetic import SyntheticWorkload


def test_recorded_events_leave_nothing_for_the_collector_to_walk():
    tracer = LabelTracer()
    labels = [Label(LabelType.UPDATE, src=f"I/gear{i}", ts=float(i),
                    target="g0:a", origin_dc="I") for i in range(50)]
    gc.collect()
    tracked_before = len(gc.get_objects())
    for step in range(2500):          # eight hooks a step: 20k records
        label = labels[step % len(labels)]
        t = step * 0.5
        tracer.on_issue(label, t, "I")
        tracer.on_flush(label, t, "I", replayed=step % 7 == 0)
        tracer.on_serializer_arrive(label, t, "ser:e0:sI", "dc:I")
        tracer.on_serializer_forward(label, t, "ser:e0:sI", "dc:F", 0.25)
        tracer.on_deliver(label, t, "F", 0, "queued")
        tracer.on_visible(label, t, "F", "saturn")
        tracer.on_finalized(label, t, "F")
        tracer.annotate(t, "epoch-change", "manager", epoch=step,
                        emergency=False)
    gc.collect()
    grown = len(gc.get_objects()) - tracked_before
    assert len(list(tracer.records())) == 20_000
    assert grown < 50, f"{grown} GC-tracked objects retained by 20k events"


def test_a_recorded_label_event_retains_at_most_48_bytes():
    tracer = LabelTracer()
    labels = [Label(LabelType.UPDATE, src=f"I/gear{i}", ts=float(i),
                    target="g0:a", origin_dc="I") for i in range(50)]
    steps = 3000                      # seven label hooks a step
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for step in range(steps):
            label = labels[step % len(labels)]
            t = step * 0.5
            tracer.on_issue(label, t, "I")
            tracer.on_flush(label, t, "I", replayed=step % 7 == 0)
            tracer.on_serializer_arrive(label, t, "ser:e0:sI", "dc:I")
            tracer.on_serializer_forward(label, t, "ser:e0:sI", "dc:F", 0.25)
            tracer.on_deliver(label, t, "F", 0, "queued")
            tracer.on_visible(label, t, "F", "saturn")
            tracer.on_finalized(label, t, "F")
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(list(tracer.records())) == 7 * steps
    assert retained / (7 * steps) <= 48, \
        f"{retained / (7 * steps):.1f} bytes retained per label event"


def test_obs_on_collects_garbage_as_often_as_obs_off():
    """About 100 simulated ms of the geo7 cluster `--count` runs, from a
    collected heap: collections are exact for one interpreter."""
    from repro.perf.count import collections

    (off, _, _), _ = collections(obs=False, duration=100.0)
    (on, _, _), result = collections(obs=True, duration=100.0)
    assert result.cluster.obs_hub.tracer.num_chains() > 0
    assert off > 0
    assert on <= 1.1 * off, f"gen-0 collections: {on} obs on, {off} off"


def _run(monitored=False, obs=False):
    """The overload run; returns the cluster, its results and its
    HazardMonitor (None unless *monitored*)."""
    workload = SyntheticWorkload(correlation="full", read_ratio=0.5,
                                 keys_per_group=8, groups_per_dc=2)
    cluster = Cluster(ClusterConfig(
        system="saturn", sites=("I", "F", "T"), clients_per_dc=6, seed=11,
        overload=OverloadConfig(sink_buffer_cap=3, sink_credits=2,
                                serializer_service_rate=0.5),
        obs=obs), workload)
    monitor = HazardMonitor.install(cluster.network) if monitored else None
    results = cluster.run(duration=300.0, warmup=50.0)
    return cluster, results, monitor


@pytest.fixture(scope="module")
def everything_run():
    """The overload run with obs and the HazardMonitor on."""
    return _run(monitored=True, obs=True)


def test_obs_hazard_monitor_and_overload_together_change_nothing(
        everything_run):
    plain, plain_results, _ = _run()
    monitored, _, monitor = _run(monitored=True)
    everything, everything_results, everything_monitor = everything_run

    # the overload chain is doing something in this configuration
    sinks = [dc.sink for dc in plain.datacenters.values()]
    assert sum(sink.deferred_labels for sink in sinks) > 0
    assert sum(dc.admission.rejected
               for dc in plain.datacenters.values()) > 0

    report = everything_monitor.report()
    assert report.ok, report.summary()
    assert report.trace_digest == monitor.report().trace_digest
    for cluster in (monitored, everything):
        assert cluster.sim.events_executed == plain.sim.events_executed
        assert cluster.network.messages_sent == plain.network.messages_sent
    assert (everything_results.visibility.samples()
            == plain_results.visibility.samples())
    assert everything_results.ops_completed == plain_results.ops_completed

    # and obs saw it: chains and the overload gauges, but not the network
    hub = everything.obs_hub
    assert hub.tracer.num_chains() > 0
    metrics = hub.tracer.metrics()
    assert metrics["gauges"]["sink:I/credits"]["updates"] > 0
    assert metrics["counters"]["admission:I/rejected"]["value"] > 0
    assert everything.network.observers == (everything_monitor,)


def test_the_registry_is_a_fold_of_the_tracer_log(everything_run):
    """Replaying the run's log into a fresh tracer rebuilds every counter
    and gauge: the log is the only thing the metrics are read from."""
    hub = everything_run[0].obs_hub
    expected = hub.tracer.metrics()
    assert any(name.startswith(("sink:", "serializer:", "admission:"))
               for name in expected["gauges"])
    replayed = LabelTracer()
    for record in hub.tracer.records():
        replayed.record(record)
    assert replayed.metrics() == expected
