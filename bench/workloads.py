"""The five benchmark workloads.

Every workload is run as *blocks*: one block builds a fresh cluster from the
seed, runs a fixed amount of work (``--scale`` multiplies it) and reads the
results.  The runner repeats blocks until ``--seconds`` have been measured
and reports medians, so host-speed metrics are steadied by repetition while
the own-clock metrics of the simulated workloads repeat exactly from block
to block (which the runner checks).

The seed drives what a user would vary — client operation streams, arrival
times, clock skews.  Data placement (the exponential correlation of
``geo7_reads``, the social graph of ``open3_rates``) is part of a workload's
definition, like its sites, and is drawn once from ``LAYOUT_SEED``.

Each block also verifies outputs from outside: remote updates never become
visible faster than the network could carry them, open-loop accounting
reconciles exactly, no operation is rejected where none should be, and
after a drain every key holds the same version at every datacenter that
replicates it.  The causal oracle (``ExecutionLog``) is attached only when
``oracle=True`` — it changes what the client layer costs, so it gets a block
of its own in the traced pass.
"""

from __future__ import annotations

import asyncio
import gc
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.config.latencies import EC2_REGIONS, ec2_latency
from repro.config.placement import find_configuration
from repro.core.naming import dc_process_name
from repro.core.serializer import Serializer
from repro.core.service import SaturnService
from repro.core.tree import TreeTopology
from repro.datacenter.client import ClientProcess
from repro.datacenter.datacenter import DatacenterParams, SaturnDatacenter
from repro.datacenter.overload import OverloadConfig
from repro.harness.experiments import Scale, run_once
from repro.harness.runner import Cluster, ClusterConfig, MetricsHub
from repro.metrics.stats import mean
from repro.net.kernel import RealtimeKernel
from repro.net.tcp import TcpTransport
from repro.sim.clock import PhysicalClock
from repro.sim.cpu import CostModel
from repro.sim.rng import RngRegistry
from repro.verify.checker import ExecutionLog
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.streaming import StreamingFacebookWorkload
from repro.workloads.synthetic import SyntheticWorkload

from bench.stats import percentile
from bench.trace import Recorder

__all__ = ["Block", "Setup", "WORKLOADS", "RATES", "REFERENCE_RATE",
           "P99_LIMIT_MS", "GOODPUT_FLOOR"]

LAYOUT_SEED = 7
#: share of each simulated run discarded as warm-up
WARMUP_SHARE = 0.2
#: simulated ms run after the cut-off (clients stopped) before the
#: convergence check; covers the longest metadata path several times
DRAIN_MS = 1000.0
CLIENTS_PER_DC = 4
NUM_PARTITIONS = 2

# open3_rates: the overload() recipe of repro.harness.experiments
RATES = (2000.0, 4000.0, 6000.0, 8000.0, 10000.0)
REFERENCE_RATE = 6000.0
P99_LIMIT_MS = 400.0
GOODPUT_FLOOR = 0.95


@dataclass
class Setup:
    """One measured set-up: configuration solve, then cluster wiring."""

    solve_s: float
    build_s: float


@dataclass
class Block:
    """What one block measured."""

    wall_s: float                 # the timed section
    cpu_s: float                  # process CPU seconds inside it
    ops: int                      # client operations completed inside it
    attempted: int
    failed: int
    #: metrics on the workload's own clock (simulated ms, or wall ms on TCP)
    own_clock: Dict[str, float]
    #: values that must repeat exactly for a seed (simulated workloads)
    exact: Dict[str, Any]
    #: per-layer counters read from the layers' public attributes
    counters: Dict[str, float]
    problems: List[str] = field(default_factory=list)
    #: traced blocks: span totals at the end of the timed section
    span_totals: Dict[str, list] = field(default_factory=dict)
    timer_lags_ns: List[int] = field(default_factory=list)
    #: oracle blocks
    oracle_records: int = 0
    oracle_check_s: float = 0.0
    oracle_violations: int = 0
    #: obs blocks
    obs_events: int = 0
    obs_export_s: float = 0.0
    obs_export_bytes: int = 0


# ---------------------------------------------------------------------------
# reading results (shared by the simulated and the TCP workloads)
# ---------------------------------------------------------------------------

def _own_clock(hub: MetricsHub, throughput: float, start: float
               ) -> Dict[str, float]:
    visibility = hub.visibility.samples()
    latencies = hub.ops.latencies(start=start)
    return {
        "model_ops_per_s": throughput,
        "visibility_p50_ms": percentile(visibility, 50),
        "visibility_p99_ms": percentile(visibility, 99),
        "op_mean_ms": mean(latencies),
        "op_p50_ms": percentile(latencies, 50),
        "op_p99_ms": percentile(latencies, 99),
        "visibility_samples": len(visibility),
        "op_samples": len(latencies),
    }


def _protocol_counters(datacenters: Sequence[SaturnDatacenter],
                       serializers: Sequence[Serializer],
                       clients: Sequence[ClientProcess],
                       elapsed_ms: float) -> Dict[str, float]:
    """Counters of the protocol layers, identical code on both kernels."""
    partitions = [p for dc in datacenters for p in dc.store.partitions]
    sinks = [dc.sink for dc in datacenters]
    proxies = [dc.proxy for dc in datacenters]
    admissions = [dc.admission for dc in datacenters
                  if dc.admission is not None]
    sink_labels = sum(s.labels_flushed for s in sinks)
    sink_batches = sum(s.batches_flushed for s in sinks)
    forwarded = sum(s.labels_forwarded for s in serializers)
    delivered = sum(s.labels_delivered for s in serializers)
    proxy_labels = sum(p.labels_processed for p in proxies)
    applied = sum(p.updates_applied for p in proxies)
    return {
        "sim.cpu.ops": sum(p.cpu.ops_executed for p in partitions),
        "sim.cpu.busy_frac_max": max(p.cpu.busy_time for p in partitions)
        / elapsed_ms,
        "datacenter.client.ops": sum(c.ops_completed for c in clients),
        "datacenter.client.rejected": sum(c.ops_rejected for c in clients),
        "datacenter.gear.labels": sum(g.labels_generated
                                      for dc in datacenters for g in dc.gears),
        "datacenter.storage.writes": sum(p.writes_applied for p in partitions),
        "datacenter.label_sink.labels": sink_labels,
        "datacenter.label_sink.batches": sink_batches,
        "datacenter.label_sink.labels_per_batch":
            sink_labels / sink_batches if sink_batches else 0.0,
        "datacenter.label_sink.deferred_labels":
            sum(s.deferred_labels for s in sinks),
        "datacenter.label_sink.coalesced_flushes":
            sum(s.coalesced_flushes for s in sinks),
        "datacenter.label_sink.peak_buffered":
            max(s.peak_buffered for s in sinks),
        "core.serializer.labels_forwarded": forwarded,
        "core.serializer.labels_delivered": delivered,
        "core.serializer.hops_per_label":
            (forwarded + delivered) / sink_labels if sink_labels else 0.0,
        "core.serializer.peak_ingress_depth":
            max(s.peak_ingress_depth for s in serializers),
        "core.serializer.credits_returned":
            sum(s.credits_returned for s in serializers),
        "datacenter.remote_proxy.labels": proxy_labels,
        "datacenter.remote_proxy.updates_applied": applied,
        "datacenter.remote_proxy.applied_per_label":
            applied / proxy_labels if proxy_labels else 0.0,
        "datacenter.overload.admitted": sum(a.admitted for a in admissions),
        "datacenter.overload.rejected": sum(a.rejected for a in admissions),
        "datacenter.overload.peak_inflight":
            max((a.peak_inflight for a in admissions), default=0),
    }


def _divergent_keys(datacenters: Sequence[SaturnDatacenter]) -> List[str]:
    """Keys whose replicas disagree (call after a drain).  Same check as
    tests/integration/test_determinism.py, which also reads ``_data``."""
    keys = set()
    for dc in datacenters:
        for partition in dc.store.partitions:
            keys.update(partition._data)
    divergent = []
    for key in sorted(keys):
        versions = {(stored.label.ts, stored.label.src)
                    for stored in (dc.store.get(key) for dc in datacenters)
                    if stored is not None}
        if len(versions) != 1:
            divergent.append(key)
    return divergent


def _oracle_verdict(block: Block, log: ExecutionLog) -> None:
    """Run the causal oracle over a drained execution."""
    started = time.perf_counter()
    violations = log.check() + log.check_completeness()
    block.oracle_check_s = time.perf_counter() - started
    block.oracle_records = len(log.updates) + log.read_count()
    block.oracle_violations = len(violations)
    block.problems.extend(f"oracle: {v.kind} at {v.dc}: {v.detail}"
                          for v in violations[:5])


# ---------------------------------------------------------------------------
# simulated workloads
# ---------------------------------------------------------------------------

def _sim_block(workload: Any, sites: Sequence[str], topology: TreeTopology,
               sim_ms: float, seed: int, recorder: Optional[Recorder],
               oracle: bool, drain: bool = True, **config: Any) -> Block:
    """One ``run_once`` of Saturn, timed around ``cluster.run``."""
    sizing = Scale(duration=sim_ms, warmup=WARMUP_SHARE * sim_ms,
                   clients_per_dc=CLIENTS_PER_DC,
                   num_partitions=NUM_PARTITIONS, seed=seed)
    marks: Dict[str, Any] = {}

    def before_run(cluster: Cluster) -> None:
        if oracle:
            marks["log"] = ExecutionLog(cluster.replication)
            cluster.attach_execution_log(marks["log"])
        if recorder is not None:
            recorder.reset()
        marks["cpu"] = time.process_time()
        marks["built"] = time.perf_counter()

    gc.collect()
    result = run_once("saturn", workload, sizing, sites=sites,
                      topology=topology, before_run=before_run, **config)
    ended = time.perf_counter()
    cpu_s = time.process_time() - marks["cpu"]
    span_totals = recorder.snapshot() if recorder is not None else {}

    cluster = result.cluster
    datacenters = list(cluster.datacenters.values())
    serializers = list(cluster.service.serializers().values())
    ops = cluster.metrics.ops.total_ops()
    own = _own_clock(cluster.metrics, result.throughput, result.warmup)
    counters = _protocol_counters(datacenters, serializers, cluster.clients,
                                  sim_ms)
    counters.update({
        "sim.engine.events": cluster.sim.events_executed,
        "sim.network.messages": cluster.network.messages_sent,
        "sim.network.bytes": cluster.network.bytes_sent,
        "workloads.openloop.offered": sum(s.offered for s in cluster.sources),
        "workloads.openloop.dispatched":
            sum(s.dispatched for s in cluster.sources),
        "workloads.openloop.peak_backlog":
            max((s.peak_backlog for s in cluster.sources), default=0),
        "workloads.openloop.peak_pool":
            sum(s.peak_pool for s in cluster.sources),
    })
    rejected = int(counters["datacenter.client.rejected"])
    block = Block(
        wall_s=ended - marks["built"], cpu_s=cpu_s, ops=ops,
        attempted=ops + rejected, failed=rejected, own_clock=own,
        exact={"events": cluster.sim.events_executed,
               "messages": cluster.network.messages_sent, "ops": ops,
               "visibility_samples": own["visibility_samples"],
               "visibility_p50_ms": own["visibility_p50_ms"]},
        counters=counters, span_totals=span_totals)

    for origin, dest in cluster.metrics.visibility.pairs():
        fastest = min(cluster.metrics.visibility.samples(origin, dest))
        if fastest < cluster.latency(origin, dest):
            block.problems.append(
                f"update from {origin} visible at {dest} after {fastest} ms, "
                f"faster than the network")
    for source in cluster.sources:
        books = source.accounting()
        if (books["offered"] != books["dispatched"] + books["backlog"]
                or books["dispatched"] != books["completed"]
                + books["rejected"] + books["in_flight"]):
            block.problems.append(f"open-loop accounting off: {books}")

    if cluster.obs_hub is not None:
        export_started = time.perf_counter()
        exported = cluster.obs_hub.export_jsonl()
        block.obs_export_s = time.perf_counter() - export_started
        block.obs_export_bytes = len(exported.encode("utf-8"))
        block.obs_events = sum(len(events) for _, events
                               in cluster.obs_hub.tracer.chains())
        if not exported.startswith('{"kind":"header"'):
            block.problems.append("obs export has no header line")
    if drain:
        cluster.sim.run(until=sim_ms + DRAIN_MS)
        divergent = _divergent_keys(datacenters)
        if divergent:
            block.problems.append(
                f"{len(divergent)} keys diverge after drain: {divergent[:3]}")
        if oracle:
            _oracle_verdict(block, marks["log"])
    return block


class Geo7:
    """Seven EC2 sites, M-configuration tree, closed loop, 28 clients."""

    sim = True

    def __init__(self, sim_ms: float, obs: bool = False,
                 **workload: Any) -> None:
        self.sim_ms = sim_ms
        self.obs = obs
        self.workload_args = workload
        self.sites = tuple(EC2_REGIONS)
        self.topology: Optional[TreeTopology] = None

    def _workload(self) -> Tuple[SyntheticWorkload, Any]:
        workload = SyntheticWorkload(**self.workload_args)
        layout = workload.replication_map(self.sites, ec2_latency,
                                          RngRegistry(seed=LAYOUT_SEED))
        return workload, layout

    def setup(self, seed: int) -> Setup:
        started = time.perf_counter()
        # what m_configuration() does on a cold cache
        self.topology = find_configuration(
            list(self.sites), {site: site for site in self.sites},
            ec2_latency, beam_width=3).topology
        solved = time.perf_counter()
        workload, layout = self._workload()
        Cluster(ClusterConfig(
            system="saturn", sites=self.sites, clients_per_dc=CLIENTS_PER_DC,
            num_partitions=NUM_PARTITIONS, seed=seed,
            saturn_topology=self.topology, replication=layout,
            obs=self.obs), workload)
        return Setup(solved - started, time.perf_counter() - solved)

    def block(self, seed: int, scale: float,
              recorder: Optional[Recorder] = None, oracle: bool = False,
              obs: Optional[bool] = None) -> Block:
        workload, layout = self._workload()
        return _sim_block(workload, self.sites, self.topology,
                          self.sim_ms * scale, seed, recorder, oracle,
                          replication=layout,
                          obs=self.obs if obs is None else obs)


class Open3:
    """Three sites on a serializer chain, open loop at five fixed rates."""

    sim = True
    sim_ms = 1000.0
    sites = ("I", "F", "T")

    def __init__(self) -> None:
        names = [f"s{site}" for site in self.sites]
        # worst-case metadata path: every label crosses the whole chain
        self.topology = TreeTopology(
            serializer_sites=dict(zip(names, self.sites)),
            edges=list(zip(names, names[1:])),
            attachments={site: f"s{site}" for site in self.sites})
        self.overload = OverloadConfig(sink_buffer_cap=50, sink_credits=20,
                                       serializer_service_rate=2.0)

    def _workload(self) -> Tuple[StreamingFacebookWorkload, Any]:
        workload = StreamingFacebookWorkload(num_users=2000, min_replicas=2,
                                             max_replicas=3)
        layout = workload.replication_map(self.sites, ec2_latency,
                                          RngRegistry(seed=LAYOUT_SEED))
        return workload, layout

    def setup(self, seed: int) -> Setup:
        started = time.perf_counter()
        workload, layout = self._workload()
        Cluster(ClusterConfig(
            system="saturn", sites=self.sites, num_partitions=NUM_PARTITIONS,
            seed=seed, saturn_topology=self.topology, replication=layout,
            arrivals=PoissonArrivals(rate_ops_s=REFERENCE_RATE),
            overload=self.overload), workload)
        return Setup(0.0, time.perf_counter() - started)

    def block(self, seed: int, scale: float,
              recorder: Optional[Recorder] = None,
              oracle: bool = False) -> Block:
        # the oracle block runs the reference rate only
        rates = (REFERENCE_RATE,) if oracle else RATES
        runs = {}
        for rate in rates:
            workload, layout = self._workload()
            runs[rate] = _sim_block(
                workload, self.sites, self.topology,
                self.sim_ms * scale, seed, recorder, oracle,
                # above the reference rate the backlog is the point
                drain=rate <= REFERENCE_RATE, replication=layout,
                arrivals=PoissonArrivals(rate_ops_s=rate),
                overload=self.overload)
        return self._merge(runs)

    @staticmethod
    def _merge(runs: Dict[float, Block]) -> Block:
        reference = runs[REFERENCE_RATE]
        blocks = list(runs.values())
        counters: Dict[str, float] = {}
        for name in reference.counters:
            values = [b.counters[name] for b in blocks]
            if "peak" in name or name.endswith("busy_frac_max"):
                counters[name] = max(values)
            elif name.endswith(("_per_batch", "_per_label")):
                counters[name] = reference.counters[name]
            else:
                counters[name] = sum(values)
        max_ok = 0.0
        for rate, block in runs.items():
            offered = block.counters["workloads.openloop.offered"]
            goodput = block.ops / offered if offered else 0.0
            p99 = block.own_clock["visibility_p99_ms"]
            counters[f"workloads.openloop.r{rate:g}.visibility_p99_ms"] = p99
            counters[f"workloads.openloop.r{rate:g}.goodput"] = goodput
            if goodput >= GOODPUT_FLOOR and p99 <= P99_LIMIT_MS:
                max_ok = max(max_ok, rate)
        counters["workloads.openloop.max_rate_ok_ops_s"] = max_ok
        span_totals: Dict[str, list] = {}
        for block in blocks:
            for name, (layer, calls, total, self_ns) in block.span_totals.items():
                entry = span_totals.setdefault(name, [layer, 0, 0, 0])
                entry[1] += calls
                entry[2] += total
                entry[3] += self_ns
        # a rejection at or below the reference rate is a failed operation;
        # above it, shedding load is the designed behaviour being measured
        judged = [b for rate, b in runs.items() if rate <= REFERENCE_RATE]
        return Block(
            wall_s=sum(b.wall_s for b in blocks),
            cpu_s=sum(b.cpu_s for b in blocks),
            ops=sum(b.ops for b in blocks),
            attempted=sum(b.attempted for b in judged),
            failed=sum(b.failed for b in judged),
            own_clock=reference.own_clock,
            exact={f"r{rate:g}": block.exact for rate, block in runs.items()},
            counters=counters,
            problems=[p for b in blocks for p in b.problems],
            span_totals=span_totals,
            oracle_records=reference.oracle_records,
            oracle_check_s=reference.oracle_check_s,
            oracle_violations=reference.oracle_violations)


# ---------------------------------------------------------------------------
# loopback TCP workload
# ---------------------------------------------------------------------------

class _StaticTree:
    """``dc.saturn`` for a fixed epoch-0 tree (all a datacenter asks of it)."""

    def __init__(self, topology: TreeTopology) -> None:
        self._attachments = topology.attachments

    def ingress_process(self, dc_name: str, epoch: int) -> str:
        return SaturnService.serializer_process_name(
            epoch, self._attachments[dc_name])


class _TimedHub(MetricsHub):
    """MetricsHub that remembers when the last operation completed, so the
    timed section ends there and not at the next poll."""

    last_op_at = 0.0

    def record_op(self, kind: str, latency: float, at: float) -> None:
        self.last_op_at = at
        super().record_op(kind, latency, at)


class Tcp2:
    """Two nodes on 127.0.0.1 in one process and one event loop: each hosts
    a datacenter, its serializer and its clients; the tree edge and the
    bulk channel cross the two TCP connections between them."""

    sim = False
    sites = ("I", "F")
    max_ops = 2000
    drain_bound_s = 5.0

    def __init__(self) -> None:
        self.topology = TreeTopology(
            serializer_sites={"sI": "I", "sF": "F"}, edges=[("sI", "sF")],
            attachments={"I": "sI", "F": "sF"})

    def setup(self, seed: int) -> Setup:
        async def boot_and_stop() -> float:
            started = time.perf_counter()
            cluster = await self._boot(seed, self.max_ops, oracle=False)
            elapsed = time.perf_counter() - started
            await self._stop(cluster)
            return elapsed

        # the teardown noise block() counts is of no interest here
        return Setup(0.0, asyncio.run(self._guarded(boot_and_stop(), [])))

    def block(self, seed: int, scale: float,
              recorder: Optional[Recorder] = None,
              oracle: bool = False) -> Block:
        errors: List[dict] = []
        gc.collect()
        block = asyncio.run(self._guarded(
            self._run(seed, max(1, int(self.max_ops * scale)), recorder,
                      oracle), errors))
        # py3.11 reports a CancelledError raised inside a stream callback
        # for every connection TcpTransport.stop() tears down; counted, not
        # printed.  Anything else the loop reports is a failure.
        shutdown = [e for e in errors if isinstance(
            e.get("exception"), asyncio.CancelledError)]
        block.counters["net.tcp.shutdown_callback_errors"] = len(shutdown)
        block.problems.extend(
            f"event loop reported: {e.get('message')}: {e.get('exception')!r}"
            for e in errors if e not in shutdown)
        return block

    @staticmethod
    async def _guarded(work: Any, errors: List[dict]) -> Any:
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: errors.append(context))
        return await work

    async def _boot(self, seed: int, max_ops: int,
                    oracle: bool) -> Dict[str, Any]:
        kernel = RealtimeKernel(asyncio.get_running_loop())
        rng = RngRegistry(seed=seed)
        workload = SyntheticWorkload(read_ratio=0.5, correlation="full",
                                     groups_per_dc=2, keys_per_group=64)

        def latency(a: str, b: str) -> float:
            return 0.0 if a == b else 1.0

        replication = workload.replication_map(self.sites, latency, rng)
        log = ExecutionLog(replication) if oracle else None
        hub = _TimedHub(kernel)
        transports = {site: TcpTransport(kernel, f"node-{site}")
                      for site in self.sites}
        addresses = {}
        for site in self.sites:
            addresses[f"node-{site}"] = await transports[site].start()
        client_ids = {site: [f"{site}-{i}" for i in range(CLIENTS_PER_DC)]
                      for site in self.sites}
        routes = {}
        for site in self.sites:
            node = f"node-{site}"
            routes[dc_process_name(site)] = node
            routes[SaturnService.serializer_process_name(0, f"s{site}")] = node
            for client_id in client_ids[site]:
                routes[f"client:{client_id}"] = node
        for transport in transports.values():
            transport.set_routes(routes, addresses)

        serializers, datacenters, clients = [], [], []
        for site in self.sites:
            transport = transports[site]
            serializer = Serializer(
                kernel, SaturnService.serializer_process_name(0, f"s{site}"),
                f"s{site}", self.topology, replication,
                delivery_name=dc_process_name,
                peer_process_name=lambda tree: (
                    SaturnService.serializer_process_name(0, tree)),
                local_hop_latency=0.0)
            serializer.attach_network(transport)
            serializers.append(serializer)
            datacenter = SaturnDatacenter(
                kernel, DatacenterParams(name=site, site=site,
                                         num_partitions=NUM_PARTITIONS,
                                         sink_batch_period=1.0),
                replication, CostModel(), PhysicalClock(kernel),
                metrics=hub, execution_log=log)
            datacenter.attach_network(transport)
            datacenter.saturn = _StaticTree(self.topology)
            datacenter.start()
            datacenters.append(datacenter)
            for client_id in client_ids[site]:
                client = ClientProcess(
                    kernel, client_id, site,
                    workload.client_generator(
                        site, replication, rng, latency,
                        stream_name=f"client-{client_id}"),
                    metrics=hub, max_ops=max_ops, execution_log=log)
                client.attach_network(transport)
                clients.append(client)
        return {"kernel": kernel, "hub": hub, "transports": transports,
                "serializers": serializers, "datacenters": datacenters,
                "clients": clients, "log": log}

    @staticmethod
    async def _stop(cluster: Dict[str, Any]) -> None:
        for transport in cluster["transports"].values():
            await transport.stop()
        # let the loop report what the teardown left behind
        for _ in range(3):
            await asyncio.sleep(0)

    async def _run(self, seed: int, max_ops: int,
                   recorder: Optional[Recorder], oracle: bool) -> Block:
        cluster = await self._boot(seed, max_ops, oracle)
        kernel: RealtimeKernel = cluster["kernel"]
        hub: _TimedHub = cluster["hub"]
        clients: List[ClientProcess] = cluster["clients"]
        datacenters: List[SaturnDatacenter] = cluster["datacenters"]
        transports: List[TcpTransport] = list(cluster["transports"].values())
        if recorder is not None:
            # time blocked in select() is the realtime kernel waiting
            selector = asyncio.get_running_loop()._selector
            selector.select = recorder.span(
                selector.select, "net.kernel.idle.select", "net.kernel.idle")
            recorder.reset()
        cpu_started = time.process_time()
        begin_ms = kernel.now
        for index, client in enumerate(clients):
            kernel.schedule(0.01 * index, client.start)
        while any(client.ops_completed < max_ops for client in clients):
            await asyncio.sleep(0.005)
        cpu_s = time.process_time() - cpu_started
        elapsed_ms = hub.last_op_at - begin_ms
        span_totals = recorder.snapshot() if recorder is not None else {}
        lags = list(recorder.timer_lags_ns) if recorder is not None else []

        problems: List[str] = []
        updates = sum(g.labels_generated for dc in datacenters for g in dc.gears)
        owed = updates * (len(self.sites) - 1)
        deadline = time.perf_counter() + self.drain_bound_s
        while (sum(dc.proxy.updates_applied for dc in datacenters) < owed
               and time.perf_counter() < deadline):
            await asyncio.sleep(0.005)
        applied = sum(dc.proxy.updates_applied for dc in datacenters)
        if applied != owed:
            problems.append(f"{owed - applied} of {owed} remote updates not "
                            f"applied {self.drain_bound_s:g} s after the run")
        divergent = _divergent_keys(datacenters)
        if divergent:
            problems.append(
                f"{len(divergent)} keys diverge after drain: {divergent[:3]}")

        ops = sum(client.ops_completed for client in clients)
        own = _own_clock(hub, ops / (elapsed_ms / 1000.0), 0.0)
        counters = _protocol_counters(datacenters, cluster["serializers"],
                                      clients, elapsed_ms)
        messages = sum(t.messages_sent for t in transports)
        frames = sum(t.frames_received for t in transports)
        counters.update({
            "net.tcp.messages": messages,
            "net.tcp.frames_received": frames,
            "net.tcp.local_share": 1.0 - frames / messages,
            "net.tcp.frames_per_op": frames / ops,
            "net.tcp.bytes_sent": sum(t.bytes_sent for t in transports),
            "net.tcp.peer_errors": sum(t.peer_errors for t in transports),
            "net.kernel.callbacks": kernel.events_executed,
        })
        rejected = int(counters["datacenter.client.rejected"])
        block = Block(
            wall_s=elapsed_ms / 1000.0, cpu_s=cpu_s, ops=ops,
            attempted=ops + rejected, failed=rejected, own_clock=own,
            exact={}, counters=counters, problems=problems,
            span_totals=span_totals, timer_lags_ns=lags)
        if min(hub.visibility.samples()) < 0:
            block.problems.append("an update was visible before it was made")
        if oracle:
            _oracle_verdict(block, cluster["log"])
        await self._stop(cluster)
        return block


# ---------------------------------------------------------------------------

#: name -> factory; why each exists is recorded in BENCHMARK.json and
#: bench/README.md
WORKLOADS: Dict[str, Callable[[], Any]] = {
    "geo7_reads": lambda: Geo7(sim_ms=1200.0),
    "geo7_writes": lambda: Geo7(sim_ms=600.0, read_ratio=0.5,
                                correlation="full"),
    "geo7_writes_obs": lambda: Geo7(sim_ms=400.0, obs=True, read_ratio=0.5,
                                    correlation="full"),
    "open3_rates": Open3,
    "tcp2_writes": Tcp2,
}
