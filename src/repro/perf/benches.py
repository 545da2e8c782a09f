"""The benchmarks behind ``python -m repro.perf``.

* :func:`bench_kernel` — raw :class:`~repro.sim.engine.Simulator` heap
  throughput (events/sec) on a self-rescheduling tick workload; the number
  every simulated component ultimately rides on.
* :func:`bench_fabric` — messages/sec through ``Process.send`` →
  ``Network.send`` → one kernel entry → ``deliver`` → ``receive`` alone:
  the path :func:`bench_kernel` never touches and :func:`bench_tree`
  dilutes with serializer routing.
* :func:`bench_tree` — label deliveries/sec through a 7-datacenter Saturn
  serializer tree over the paper's Table-1 EC2 latencies; exercises
  ``Network.send``, serializer routing-table caches and interest
  memoization together — with the :mod:`repro.obs` hooks compiled in but
  *disabled* (``obs is None``), the configuration every ordinary run pays
  for.
* :func:`bench_obs_enabled` — that hot path with a tracer attached; guards
  the cheap-enough-to-leave-on promise.
* :func:`bench_codec` — wire frames/sec through ``encode_frame`` +
  ``decode_frame_body`` over the golden frame shapes: the per-frame host
  cost of every message that crosses a real socket.
* :func:`bench_config_solve` — wall-clock seconds for one cold Algorithm 3
  search over the seven EC2 sites at beam width 3, the configuration solve
  every ``geo7_*`` benchmark workload pays in its set-up.
* :func:`bench_figure` — wall-clock seconds for one smoke-scale figure run
  (the full stack: datacenters, gears, clients, metrics), i.e. what a
  contributor actually waits for.
* :func:`bench_saturation` — max sustainable open-loop offered load
  (ops/s per datacenter at the p99-visibility SLO) on a smoke overload
  sweep.  Unlike the others this is a *simulated* quantity — exactly
  reproducible on any machine — so it is ``calibration_free`` and its
  regression gate catches capacity losses (a slower label path, a
  mis-tuned queue bound) rather than host slowness.

Each returns a plain dict ready for :mod:`repro.perf.baseline`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config.latencies import EC2_REGIONS, ec2_latency, ec2_latency_model
from repro.config.placement import find_configuration
from repro.core.label import Label, LabelType
from repro.core.replication import ReplicationMap
from repro.core.service import SaturnService
from repro.core.tree import TreeTopology
from repro.core.naming import dc_process_name
from repro.datacenter.messages import LabelBatch
from repro.perf.measure import best_rate, wall_clock
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.process import Process

__all__ = ["bench_kernel", "bench_fabric", "bench_tree", "bench_obs_enabled",
           "bench_codec", "bench_config_solve", "bench_figure",
           "bench_saturation", "TREE_SITES"]

#: the paper's seven EC2 regions — one datacenter per region
TREE_SITES: Tuple[str, ...] = tuple(EC2_REGIONS)


# ---------------------------------------------------------------------------
# kernel microbenchmark
# ---------------------------------------------------------------------------

def bench_kernel(events: int = 300_000, chains: int = 100,
                 repeats: int = 5) -> Dict:
    """Events/sec through the simulator heap.

    *chains* concurrent self-rescheduling ticks keep the heap at a
    realistic depth; every tick is one pop + one push, so the measured
    rate is dominated by exactly the code every actor schedules through.
    """

    def run() -> Tuple[int, float]:
        sim = Simulator()
        remaining = [events]

        def tick() -> None:
            left = remaining[0] = remaining[0] - 1
            if left > 0:
                sim.schedule(1.0, tick)

        for i in range(chains):
            sim.schedule(0.1 * (i % 7), tick)
        start = wall_clock()
        sim.run()
        elapsed = wall_clock() - start
        return sim.events_executed, elapsed

    rate, work, elapsed = best_rate(run, repeats)
    return {
        "raw": rate,
        "unit": "events/s",
        "higher_is_better": True,
        "meta": {"events": work, "seconds": elapsed, "chains": chains,
                 "repeats": repeats},
    }


# ---------------------------------------------------------------------------
# message-fabric microbenchmark
# ---------------------------------------------------------------------------

class _Echo(Process):
    """Sends every message straight back while the shared budget lasts."""

    def __init__(self, sim: Simulator, name: str, budget: List[int]) -> None:
        super().__init__(sim, name)
        self.budget = budget

    def receive(self, sender: str, message) -> None:
        left = self.budget[0] = self.budget[0] - 1
        if left > 0:
            self.send(sender, message)


def bench_fabric(messages: int = 300_000, repeats: int = 3,
                 sites: Tuple[str, ...] = TREE_SITES) -> Dict:
    """Messages/sec between one placed process per site, every ordered
    pair ping-ponging one message (42 links in flight on seven sites)."""

    def run() -> Tuple[int, float]:
        sim = Simulator()
        network = Network(sim, latency_model=ec2_latency_model(),
                          default_latency=0.25)
        budget = [messages]
        nodes = [_Echo(sim, f"node:{site}", budget) for site in sites]
        for node, site in zip(nodes, sites):
            node.attach_network(network)
            network.place(node.name, site)
        for node in nodes:
            for peer in nodes:
                if peer is not node:
                    node.send(peer.name, 0)
        start = wall_clock()
        sim.run()
        return network.messages_sent, wall_clock() - start

    rate, work, elapsed = best_rate(run, repeats)
    return {"raw": rate, "unit": "messages/s", "higher_is_better": True,
            "meta": {"messages": work, "seconds": elapsed,
                     "sites": len(sites), "repeats": repeats}}


# ---------------------------------------------------------------------------
# 7-DC serializer-tree throughput
# ---------------------------------------------------------------------------

class _LabelCounter(Process):
    """Stand-in for a datacenter: counts the labels Saturn delivers."""

    def __init__(self, sim: Simulator, dc_name: str) -> None:
        super().__init__(sim, dc_process_name(dc_name))
        self.labels_received = 0

    def receive(self, sender: str, message) -> None:
        if isinstance(message, LabelBatch):
            self.labels_received += len(message.labels)


def _tree_run(batches_per_dc: int, labels_per_batch: int,
              sites: Tuple[str, ...], traced: bool = False) -> Tuple[int, float]:
    """One timed serializer-tree run; ``traced`` attaches a LabelTracer."""
    sim = Simulator()
    network = Network(sim, latency_model=ec2_latency_model(),
                      default_latency=0.25)
    replication = ReplicationMap(list(sites))
    service = SaturnService(sim, network, replication)
    if traced:
        # imported lazily so the untraced bench never touches repro.obs
        from repro.obs import ObsHub
        service.obs = ObsHub(sim, network).tracer
    topology = TreeTopology.chain(sites)
    service.install_tree(topology, epoch=0)
    counters: List[_LabelCounter] = []
    for site in sites:
        counter = _LabelCounter(sim, site)
        counter.attach_network(network)
        network.place(counter.name, site)
        counters.append(counter)

    def make_injector(site: str, ingress: str, batch_index: int):
        base_ts = float(batch_index * labels_per_batch)

        def inject() -> None:
            labels = tuple(
                Label(LabelType.UPDATE, src=f"{site}/gear",
                      ts=base_ts + offset, target=f"key{offset}",
                      origin_dc=site)
                for offset in range(labels_per_batch))
            network.send(f"sink:{site}", ingress, LabelBatch(labels))

        return inject

    for site in sites:
        ingress = service.ingress_process(site, epoch=0)
        assert ingress is not None
        for batch_index in range(batches_per_dc):
            sim.schedule(1.0 * batch_index,
                         make_injector(site, ingress, batch_index))
    start = wall_clock()
    sim.run()
    elapsed = wall_clock() - start
    delivered = sum(counter.labels_received for counter in counters)
    return delivered, elapsed


def bench_tree(batches_per_dc: int = 120, labels_per_batch: int = 24,
               repeats: int = 3, sites: Tuple[str, ...] = TREE_SITES,
               traced: bool = False) -> Dict:
    """Label deliveries/sec through the full-width serializer tree.

    Every datacenter streams timestamp-ordered update-label batches into
    its ingress serializer (1 ms apart, mimicking the sink's batch
    period); with full replication each label must reach the other six
    datacenters, so one run forwards ``7 * batches * labels`` labels and
    delivers six times that many.  The obs hooks are present but off —
    the rate every *untraced* run pays; ``traced`` attaches a tracer
    instead (see :func:`bench_obs_enabled`).
    """

    def run() -> Tuple[int, float]:
        return _tree_run(batches_per_dc, labels_per_batch, sites, traced)

    rate, work, elapsed = best_rate(run, repeats)
    expected = len(sites) * batches_per_dc * labels_per_batch * (len(sites) - 1)
    return {
        "raw": rate,
        "unit": "labels/s",
        "higher_is_better": True,
        "meta": {"labels_delivered": work, "expected": expected,
                 "seconds": elapsed, "batches_per_dc": batches_per_dc,
                 "labels_per_batch": labels_per_batch, "repeats": repeats},
    }


def bench_obs_enabled(untraced_rate: float, **sizing) -> Dict:
    """:func:`bench_tree` with a :class:`~repro.obs.LabelTracer` attached:
    what leaving tracing on costs the label path (two hook calls per label
    per hop).  *untraced_rate* (:func:`bench_tree`'s) only feeds the
    informational ``traced_overhead_pct``; the gate watches the rate.
    """
    result = bench_tree(traced=True, **sizing)
    result["meta"]["traced_overhead_pct"] = (
        100.0 * (untraced_rate - result["raw"]) / untraced_rate
        if untraced_rate else 0.0)
    return result


# ---------------------------------------------------------------------------
# wire codec round trips
# ---------------------------------------------------------------------------

def bench_codec(frames: int = 30_000, repeats: int = 3) -> Dict:
    """Frames/sec through one encode + one decode each, cycling over the
    shapes ``tests/net/golden/frames.hex`` pins (client update and read,
    a two-label batch, a remote payload, a heartbeat, an explicit-
    dependency payload)."""
    # imported lazily: the codec pulls in every baseline's message types
    from repro.baselines.explicit import ExplicitPayload
    from repro.datacenter.messages import (BulkHeartbeat, ClientRead,
                                           ClientUpdate, RemotePayload)
    from repro.net import codec

    def label(ts: float, src: str, key: str) -> Label:
        return Label(LabelType.UPDATE, src, ts, key, "I")

    first = label(12.5, "I:g0", "g0:a")
    shapes = (
        ("client:w", "dc:I", ClientUpdate("w", "g0:a", 2, first)),
        ("client:w", "dc:I", ClientRead("w", "g0:a")),
        ("dc:I", "ser:e0:sI",
         LabelBatch(labels=(first, label(13.0, "I:g1", "g0:b")))),
        ("dc:I", "dc:F", RemotePayload(first, "g0:a", 2, 10.25)),
        ("dc:F", "dc:T", BulkHeartbeat("F", 42.0)),
        ("dc:I", "dc:F", ExplicitPayload(
            first, "g0:a", 2, 10.25,
            frozenset({("g0:b", (11.0, "I:g1")), ("g0:c", (9.0, "I:g0"))}))),
    )
    header = codec.FRAME_HEADER.size
    rounds = frames // len(shapes)

    def run() -> Tuple[int, float]:
        start = wall_clock()
        for _ in range(rounds):
            for src, dst, message in shapes:
                frame = codec.encode_frame(src, dst, message)
                codec.decode_frame_body(frame[header:])
        return rounds * len(shapes), wall_clock() - start

    rate, work, elapsed = best_rate(run, repeats)
    wire_bytes = sum(len(codec.encode_frame(*shape)) for shape in shapes)
    return {"raw": rate, "unit": "frames/s", "higher_is_better": True,
            "meta": {"frames": work, "seconds": elapsed, "repeats": repeats,
                     "bytes_per_frame": wire_bytes / len(shapes)}}


# ---------------------------------------------------------------------------
# configuration solve
# ---------------------------------------------------------------------------

def bench_config_solve(repeats: int = 3) -> Dict:
    """Wall-clock for one cold beam-3 ``find_configuration`` over the seven
    EC2 sites (lower is better)."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = wall_clock()
        solved = find_configuration(TREE_SITES, {s: s for s in TREE_SITES},
                                    ec2_latency, beam_width=3)
        best = min(best, wall_clock() - start)
    return {"raw": best, "unit": "s", "higher_is_better": False,
            "meta": {"sites": len(TREE_SITES), "repeats": repeats,
                     "score": solved.score}}


# ---------------------------------------------------------------------------
# end-to-end smoke figure run
# ---------------------------------------------------------------------------

def bench_figure(repeats: int = 3, scale=None) -> Dict:
    """Wall-clock for one smoke-scale Saturn figure run (lower is better)."""
    # imported lazily: the harness pulls in the whole workload stack
    from repro.harness.runner import SMOKE, m_configuration, run_once
    from repro.workloads.synthetic import SyntheticWorkload

    scale = scale or SMOKE
    # warm the M-configuration cache so the beam search (a one-off
    # config-solver cost, cached across figures) stays out of the timing
    m_configuration(TREE_SITES, beam_width=scale.beam_width)
    best = float("inf")
    throughput = 0.0
    for _ in range(max(1, repeats)):
        start = wall_clock()
        result = run_once("saturn", SyntheticWorkload(), scale)
        elapsed = wall_clock() - start
        if elapsed < best:
            best = elapsed
            throughput = result.throughput
    return {
        "raw": best,
        "unit": "s",
        "higher_is_better": False,
        "meta": {"sim_throughput_ops_s": throughput,
                 "duration_ms": scale.duration, "repeats": repeats},
    }


# ---------------------------------------------------------------------------
# open-loop saturation point (simulated, calibration-free)
# ---------------------------------------------------------------------------

def bench_saturation(rates: Tuple[float, ...] = (2000.0, 4000.0, 6000.0,
                                                 8000.0, 10000.0),
                     num_users: int = 2000) -> Dict:
    """Max sustainable offered load (ops/s per DC) at the p99 SLO.

    Runs the smoke overload sweep (3-DC serializer chain, the social
    workload of Fig. 8 at ``num_users`` users, Poisson open-loop arrivals,
    Saturn with the bounded backpressure chain) and reports the largest swept rate that stays
    within the p99-visibility SLO with >= 95% goodput.  The result is a
    deterministic function of the codebase — no repeats, no calibration;
    a drop to the next sweep point means the throughput cliff moved.
    """
    from repro.harness.experiments import run_experiment
    from repro.harness.runner import Scale

    scale = Scale(duration=400.0, warmup=100.0, num_partitions=2, seed=11)
    result = run_experiment("overload", scale, systems=("saturn",),
                            rates=rates, num_users=num_users)
    best = result["max_sustainable_ops_s"]["saturn"] or 0.0
    return {
        "raw": best,
        "unit": "ops/s/dc",
        "higher_is_better": True,
        "calibration_free": True,
        "meta": {"rates": list(rates), "num_users": num_users,
                 "p99_slo_ms": result["p99_slo_ms"],
                 "goodput_floor": result["goodput_floor"],
                 "per_rate": [
                     {"rate": row["offered_ops_s_per_dc"],
                      "goodput": round(row["goodput"], 4),
                      "visibility_p99_ms": (
                          None if row["visibility_p99_ms"] is None
                          else round(row["visibility_p99_ms"], 3)),
                      "sustainable": row["sustainable"]}
                     for row in result["rows"]]},
    }
