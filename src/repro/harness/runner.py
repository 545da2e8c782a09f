"""Experiment harness: build a geo-replicated cluster and drive a workload.

The runner assembles the full simulated system for any of the systems
under study:

* ``"saturn"``     — the paper's system (tree-based metadata dissemination);
* ``"saturn-ts"``  — the P-configuration (timestamp-order fallback only);
* ``"eventual"``   — eventually consistent baseline (upper/lower bound);
* ``"gentlerain"`` — GentleRain [26];
* ``"cure"``       — Cure [3];
* ``"eunomia"``    — Eunomia (per-site sequencer, deferred stabilization);
* ``"okapi"``      — Okapi (HLC vectors, global-cut stabilization);
* ``"cops"`` / ``"cops-noprune"`` — COPS-style explicit dependencies;

places one datacenter per site with Table-1-style latencies, spawns
closed-loop clients, runs for a simulated duration, and returns throughput
and visibility-latency results with a warmup window discarded (the paper
drops the first and last minute of each run).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.baselines.base import StabilizedDatacenter
from repro.baselines.cure import CureDatacenter, cure_merge
from repro.baselines.eunomia import EunomiaDatacenter, eunomia_merge
from repro.baselines.explicit import ExplicitDatacenter, explicit_merge
from repro.baselines.gentlerain import GentleRainDatacenter, gentlerain_merge
from repro.baselines.okapi import OkapiDatacenter
from repro.config.latencies import EC2_REGIONS, ec2_latency_model
from repro.core.label import label_max
from repro.core.replication import ReplicationMap
from repro.core.service import SaturnService
from repro.core.tree import TreeTopology
from repro.datacenter.client import ClientProcess
from repro.datacenter.datacenter import DatacenterParams, SaturnDatacenter
from repro.datacenter.overload import OverloadConfig
from repro.workloads.openloop import OpenLoopClient, OpenLoopSource
from repro.metrics import OpRecorder, VisibilityRecorder
from repro.sim.clock import ClockFactory
from repro.sim.cpu import CostModel
from repro.sim.engine import Simulator
from repro.sim.network import LatencyModel, Network
from repro.sim.rng import RngRegistry

__all__ = ["ClusterConfig", "Cluster", "RunResults", "MetricsHub", "SYSTEMS"]

SYSTEMS = ("saturn", "saturn-ts", "eventual", "gentlerain", "cure",
           "eunomia", "okapi", "cops", "cops-noprune")


class MetricsHub:
    """Single sink for all measurements taken during a run."""

    def __init__(self, sim: Simulator, warmup_until: float = 0.0) -> None:
        self.visibility = VisibilityRecorder(warmup_until=warmup_until)
        self.visibility.bind_clock(sim)
        self.ops = OpRecorder()

    def record_visibility(self, origin: str, dest: str, latency: float) -> None:
        self.visibility.record_visibility(origin, dest, latency)

    def record_op(self, kind: str, latency: float, at: float) -> None:
        self.ops.record_op(kind, latency, at)


@dataclass
class ClusterConfig:
    """Static description of one experiment's cluster."""

    system: str = "saturn"
    sites: Sequence[str] = tuple(EC2_REGIONS)
    num_partitions: int = 2
    clients_per_dc: int = 8
    seed: int = 1
    cost_model: CostModel = field(default_factory=CostModel)
    latency_model: Optional[LatencyModel] = None
    local_latency: float = 0.25
    max_clock_skew: float = 0.5
    #: Saturn tree; default is a star on the first site (experiments pass
    #: the configuration generator's output for the M-configuration).
    saturn_topology: Optional[TreeTopology] = None
    sink_batch_period: float = 1.0
    sink_heartbeat_period: float = 10.0
    bulk_heartbeat_period: float = 5.0
    chain_length: int = 1
    parallel_concurrent_apply: bool = True
    ping_period: float = 0.0
    #: serializer liveness beacons + per-sink failure detector (0 = off;
    #: see repro.datacenter.failover for the state machine)
    beacon_period: float = 0.0
    beacon_timeout: float = 0.0
    stabilization_wait: float = 4.0
    probe_period: float = 4.0
    #: wire the AutoFailover coordinator: degraded datacenters trigger an
    #: emergency epoch change once the dead tree is reachable again
    auto_failover: bool = False
    #: stuck fast-path epoch changes escalate to the failure path (0 = off)
    transition_timeout: float = 0.0
    #: Eunomia sequencer batching interval (ms): the staleness /
    #: batching-efficiency knob of the deferred-stabilization design
    sequencer_batch_period: float = 2.0
    #: override the workload's replication map (e.g. Fig. 1b sweeps)
    replication: Optional[ReplicationMap] = None
    #: opt-in runtime FIFO/determinism checker (repro.analysis.runtime);
    #: off by default so the hot path stays uninstrumented
    hazard_monitor: bool = False
    #: opt-in label-lifecycle tracing + metrics registry (repro.obs); the
    #: tracer schedules no events, so the simulated execution is identical
    #: with it on or off
    obs: bool = False
    #: arrival model (repro.workloads.arrivals); None or ClosedLoop keeps
    #: the historical closed-loop client population, an open-loop model
    #: replaces it with per-datacenter OpenLoopSources (clients_per_dc is
    #: then ignored — the pool grows on demand)
    arrivals: Optional[object] = None
    #: opt-in overload machinery (repro.datacenter.overload); None keeps
    #: every queue unbounded and admission disabled
    overload: Optional[OverloadConfig] = None

    def __post_init__(self) -> None:
        if self.system not in SYSTEMS:
            raise ValueError(f"unknown system {self.system!r}; "
                             f"expected one of {SYSTEMS}")
        if self.latency_model is None:
            self.latency_model = ec2_latency_model(self.local_latency)


@dataclass
class RunResults:
    """Outcome of one run."""

    throughput: float
    ops_completed: int
    duration: float
    warmup: float
    visibility: VisibilityRecorder
    ops: OpRecorder
    cluster: "Cluster"

    def mean_visibility(self, origin: Optional[str] = None,
                        dest: Optional[str] = None) -> float:
        return self.visibility.mean(origin, dest)


class Cluster:
    """A fully wired simulated deployment."""

    def __init__(self, config: ClusterConfig, workload) -> None:
        self.config = config
        self.workload = workload
        self.sim = Simulator()
        self.rng = RngRegistry(seed=config.seed)
        self.network = Network(self.sim, latency_model=config.latency_model,
                               default_latency=config.local_latency,
                               rng=self.rng)
        self.metrics = MetricsHub(self.sim)
        self.clocks = ClockFactory(self.sim, self.rng,
                                   max_skew=config.max_clock_skew)
        self.sites = list(config.sites)
        self.hazard_monitor = None
        if config.hazard_monitor:
            from repro.analysis.runtime import HazardMonitor
            self.hazard_monitor = HazardMonitor.install(self.sim, self.network)
        self.obs_hub = None
        if config.obs:
            from repro.obs import ObsHub
            self.obs_hub = ObsHub(self.sim, self.network)
            if self.hazard_monitor is not None:
                # a trace is installed anyway: ride it with the tap (the
                # monitor stays primary, its digest is unchanged).  With
                # no monitor the trace slot stays empty on purpose: the
                # tap would add per-message work to every obs run.
                from repro.analysis.mc.oracles import TraceTee
                self.network.trace = TraceTee(self.hazard_monitor,
                                              self.obs_hub.net_tap)

        def latency(a: str, b: str) -> float:
            if a == b:
                return 0.0
            return config.latency_model.get(a, b)

        self.latency = latency
        self.replication = config.replication or self.workload.replication_map(
            self.sites, latency, self.rng)

        self.service: Optional[SaturnService] = None
        self.datacenters: Dict[str, object] = {}
        self.clients: List[ClientProcess] = []
        self.sources: List[OpenLoopSource] = []
        self.execution_log = None
        self.manager = None
        self.failover = None
        self._build_datacenters()
        if self.open_loop:
            self._build_sources()
        else:
            self._build_clients()
        self._build_failover()

    @property
    def open_loop(self) -> bool:
        return getattr(self.config.arrivals, "open_loop", False)

    # ------------------------------------------------------------------

    def _build_datacenters(self) -> None:
        config = self.config
        if config.system == "saturn":
            topology = config.saturn_topology or TreeTopology.star(
                self.sites[0], {site: site for site in self.sites})
            service_rate = (config.overload.serializer_service_rate
                            if config.overload is not None else 0.0)
            self.service = SaturnService(self.sim, self.network,
                                         self.replication,
                                         chain_length=config.chain_length,
                                         beacon_period=config.beacon_period,
                                         serializer_service_rate=service_rate)
            if self.obs_hub is not None:
                # before install_tree, so the serializers inherit the tracer
                self.service.obs = self.obs_hub.tracer
                self.service.queue_obs = self.obs_hub.registry
            self.service.install_tree(topology, epoch=0)
        for site in self.sites:
            self.datacenters[site] = self._make_datacenter(site)

    def _make_datacenter(self, site: str):
        config = self.config
        clock = self.clocks.create()
        if config.system in ("saturn", "saturn-ts", "eventual"):
            consistency = {"saturn": "saturn", "saturn-ts": "timestamp",
                           "eventual": "eventual"}[config.system]
            params = DatacenterParams(
                name=site, site=site, num_partitions=config.num_partitions,
                consistency=consistency,
                sink_batch_period=config.sink_batch_period,
                sink_heartbeat_period=config.sink_heartbeat_period,
                bulk_heartbeat_period=config.bulk_heartbeat_period,
                parallel_concurrent_apply=config.parallel_concurrent_apply,
                ping_period=config.ping_period,
                beacon_timeout=config.beacon_timeout,
                stabilization_wait=config.stabilization_wait,
                probe_period=config.probe_period,
                transition_timeout=config.transition_timeout,
                sink_buffer_cap=(config.overload.sink_buffer_cap
                                 if config.overload is not None else 0),
                sink_credits=(config.overload.sink_credits
                              if config.overload is not None else 0))
            dc = SaturnDatacenter(self.sim, params, self.replication,
                                  config.cost_model, clock,
                                  metrics=self.metrics,
                                  execution_log=self.execution_log)
            dc.saturn = self.service
            if self.obs_hub is not None:
                tracer = self.obs_hub.tracer
                dc.sink.obs = tracer
                dc.proxy.obs = tracer
                if dc.failover is not None:
                    dc.failover.obs = tracer
                dc.sink.queue_obs = self.obs_hub.registry
                if dc.admission is not None:
                    dc.admission.obs = self.obs_hub.registry
        elif config.system == "gentlerain":
            dc = GentleRainDatacenter(self.sim, site, site, self.replication,
                                      config.cost_model, clock,
                                      num_partitions=config.num_partitions,
                                      metrics=self.metrics,
                                      execution_log=self.execution_log)
        elif config.system == "eunomia":
            dc = EunomiaDatacenter(self.sim, site, site, self.replication,
                                   config.cost_model, clock,
                                   num_partitions=config.num_partitions,
                                   metrics=self.metrics,
                                   execution_log=self.execution_log,
                                   batch_period=config.sequencer_batch_period)
        elif config.system == "okapi":
            dc = OkapiDatacenter(self.sim, site, site, self.replication,
                                 config.cost_model, clock,
                                 num_partitions=config.num_partitions,
                                 metrics=self.metrics,
                                 execution_log=self.execution_log)
        elif config.system in ("cops", "cops-noprune"):
            dc = ExplicitDatacenter(self.sim, site, site, self.replication,
                                    config.cost_model, clock,
                                    num_partitions=config.num_partitions,
                                    prune_on_write=(config.system == "cops"),
                                    metrics=self.metrics,
                                    execution_log=self.execution_log)
        else:  # cure
            dc = CureDatacenter(self.sim, site, site, self.replication,
                                config.cost_model, clock,
                                num_partitions=config.num_partitions,
                                metrics=self.metrics,
                                execution_log=self.execution_log)
        if self.obs_hub is not None and isinstance(dc, StabilizedDatacenter):
            dc.obs = self.obs_hub.tracer
        dc.attach_network(self.network)
        self.network.place(dc.name, site)
        return dc

    def merge_function(self) -> Callable:
        return {
            "saturn": label_max, "saturn-ts": label_max,
            "eventual": label_max,
            "gentlerain": gentlerain_merge,
            "cure": cure_merge,
            "eunomia": eunomia_merge,
            "okapi": cure_merge,
            "cops": explicit_merge, "cops-noprune": explicit_merge,
        }[self.config.system]

    def _build_clients(self) -> None:
        merge = self.merge_function()
        for site in self.sites:
            for index in range(self.config.clients_per_dc):
                client_id = f"{site}-{index}"
                generator = self.workload.client_generator(
                    site, self.replication, self.rng, self.latency,
                    stream_name=f"client-{client_id}")
                client = ClientProcess(self.sim, client_id, site, generator,
                                       merge=merge, metrics=self.metrics)
                client.attach_network(self.network)
                self.network.place(client.name, site)
                self.clients.append(client)

    def _build_sources(self) -> None:
        """One open-loop arrival source per site (clients spawn on demand)."""
        merge = self.merge_function()

        def make_spawn(site: str, source_box: list):
            def spawn(client_id: str) -> OpenLoopClient:
                generator = self.workload.client_generator(
                    site, self.replication, self.rng, self.latency,
                    stream_name=f"client-{client_id}")
                client = OpenLoopClient(
                    self.sim, client_id, site, generator, merge=merge,
                    metrics=self.metrics, execution_log=self.execution_log,
                    source=source_box[0])
                client.attach_network(self.network)
                self.network.place(client.name, site)
                self.clients.append(client)
                return client
            return spawn

        for site in self.sites:
            box: list = [None]
            source = OpenLoopSource(self.sim, site, self.config.arrivals,
                                    spawn=make_spawn(site, box),
                                    stream=self.rng.stream(f"openloop-{site}"))
            box[0] = source
            self.sources.append(source)

    def _build_failover(self) -> None:
        if not self.config.auto_failover or self.service is None:
            return
        from repro.core.failover import AutoFailover
        from repro.core.reconfig import ReconfigurationManager
        self.manager = ReconfigurationManager(
            self.service, list(self.datacenters.values()))
        if self.obs_hub is not None:
            self.manager.obs = self.obs_hub.tracer
        self.failover = AutoFailover(self.manager)
        for dc in self.datacenters.values():
            if getattr(dc, "failover", None) is not None:
                dc.failover.coordinator = self.failover

    # ------------------------------------------------------------------

    def attach_execution_log(self, log) -> None:
        """Install a causal-consistency execution log on every component."""
        self.execution_log = log
        for dc in self.datacenters.values():
            dc.execution_log = log
        for client in self.clients:
            client.execution_log = log

    def start(self) -> None:
        for dc in self.datacenters.values():
            dc.start()
        for source in self.sources:
            source.start()
        for index, client in enumerate(self.clients):
            # stagger starts slightly to avoid lock-step artifacts
            self.sim.schedule(0.01 * index, client.start)

    def run(self, duration: float = 1000.0, warmup: float = 200.0) -> RunResults:
        """Start the cluster and run for *duration* ms of simulated time."""
        if warmup >= duration:
            raise ValueError("warmup must be shorter than duration")
        self.metrics.visibility.warmup_until = warmup
        self.start()
        self.sim.run(until=duration)
        for source in self.sources:
            source.stop()
        for client in self.clients:
            client.stop()
        if self.obs_hub is not None:
            self.obs_hub.sample_kernel()
        throughput = self.metrics.ops.throughput(warmup, duration)
        return RunResults(
            throughput=throughput,
            ops_completed=self.metrics.ops.ops_in_window(warmup, duration),
            duration=duration, warmup=warmup,
            visibility=self.metrics.visibility, ops=self.metrics.ops,
            cluster=self)
