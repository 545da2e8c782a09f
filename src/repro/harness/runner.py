"""Experiment harness: build a geo-replicated cluster and drive a workload.

:class:`Cluster` is the one builder of a simulated deployment.  It
assembles any system of the protocol table (:mod:`repro.protocols`;
``saturn-repro list`` prints it) with Table-1-style latencies: one
datacenter per site and the serializer tree if the protocol has one
(through :class:`~repro.protocols.Deployment`, the socket nodes' site
builder too), and the clients — the workload's own roster if it has one
(:class:`~repro.datacenter.script.ScriptedWorkload`), else closed-loop
clients per site or open-loop arrival sources.  A run lasts a simulated
duration and returns throughput and visibility-latency results with a
warmup window discarded (the paper drops the first and last minute of
each run).  :func:`run_once` builds and runs one for a :class:`Scale`,
over the paper's M-configuration tree unless told otherwise; it is what
every experiment of :mod:`repro.harness.experiments` runs.  The
model-checking and chaos scenarios (:mod:`repro.analysis.mc.scenario`)
are a ``Cluster`` plus oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config.latencies import (EC2_REGIONS, ec2_latency,
                                    ec2_latency_model)
from repro.config.placement import find_configuration
from repro.core.replication import ReplicationMap
from repro.core.tree import TreeTopology
from repro.datacenter.client import ClientProcess
from repro.datacenter.overload import OverloadConfig
from repro.protocols import SYSTEMS, Deployment, check_params, protocol_named
from repro.workloads.openloop import OpenLoopClient, OpenLoopSource
from repro.metrics import OpRecorder, VisibilityRecorder
from repro.sim.clock import ClockFactory
from repro.sim.engine import Simulator
from repro.sim.network import LatencyModel, Network
from repro.sim.rng import RngRegistry

__all__ = ["ClusterConfig", "Cluster", "RunResults", "MetricsHub", "SYSTEMS",
           "Scale", "SMOKE", "DEFAULT", "m_configuration", "run_once"]

#: one-way latency (ms) between processes of one site, and of any pair the
#: latency model does not name
LOCAL_LATENCY = 0.25


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
    latency_model: Optional[LatencyModel] = None
    max_clock_skew: float = 0.5
    #: Saturn tree; default is a star on the first site (experiments pass
    #: the configuration generator's output for the M-configuration).
    saturn_topology: Optional[TreeTopology] = None
    #: serializer liveness beacons (0 = off); the per-sink detector's
    #: ``dc_params["beacon_timeout"]`` needs them (repro.datacenter.failover)
    beacon_period: float = 0.0
    #: wire the AutoFailover coordinator: degraded datacenters trigger an
    #: emergency epoch change once the dead tree is reachable again
    auto_failover: bool = False
    #: per-datacenter tuning handed to the protocol's datacenter factory:
    #: DatacenterParams fields for the Saturn family (sink periods,
    #: detector timeouts, ``transition_timeout``...), constructor keywords
    #: for a baseline (Eunomia's ``batch_period``)
    dc_params: Mapping[str, Any] = field(default_factory=dict)
    #: override the workload's replication map (e.g. Fig. 1b sweeps)
    replication: Optional[ReplicationMap] = None
    #: opt-in label-lifecycle tracing and its metrics (repro.obs); the
    #: tracer schedules no events, so the simulated execution is identical
    #: with it on or off
    obs: bool = False
    #: open-loop arrival model (repro.workloads.arrivals.PoissonArrivals);
    #: None keeps the closed-loop client population, a model replaces it
    #: with per-datacenter OpenLoopSources (clients_per_dc is then ignored
    #: — the pool grows on demand)
    arrivals: Optional[object] = None
    #: opt-in overload machinery (repro.datacenter.overload); None keeps
    #: every queue unbounded and admission disabled.  Its sink bounds are
    #: DatacenterParams fields, so only the Saturn family accepts it
    overload: Optional[OverloadConfig] = None

    def __post_init__(self) -> None:
        check_params(self.system, self.dc_params, self.beacon_period,
                     self.overload, self.auto_failover)
        if "num_partitions" in self.dc_params:
            raise ValueError("dc_params num_partitions is a ClusterConfig "
                             "field: pass num_partitions=...")
        if self.latency_model is None:
            self.latency_model = ec2_latency_model(LOCAL_LATENCY)


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


class Cluster:
    """A fully wired simulated deployment."""

    def __init__(self, config: ClusterConfig, workload) -> None:
        self.config = config
        self.workload = workload
        self.protocol = protocol_named(config.system)
        self.sim = Simulator()
        self.rng = RngRegistry(seed=config.seed)
        self.network = Network(self.sim, latency_model=config.latency_model,
                               default_latency=LOCAL_LATENCY)
        self.metrics = MetricsHub(self.sim)
        self.clocks = ClockFactory(self.sim, self.rng,
                                   max_skew=config.max_clock_skew)
        self.sites = list(config.sites)

        def latency(a: str, b: str) -> float:
            if a == b:
                return 0.0
            return config.latency_model.get(a, b)

        self.latency = latency
        self.replication = config.replication or self.workload.replication_map(
            self.sites, latency, self.rng)

        params = dict(config.dc_params, num_partitions=config.num_partitions)
        site = Deployment(self.sim, self.network, self.protocol,
                          self.replication, self.sites, self.clocks.create,
                          self.metrics, params, overload=config.overload)
        site.attach(config.saturn_topology, auto_failover=config.auto_failover,
                    beacon_period=config.beacon_period)
        self.datacenters, self.service = site.datacenters, site.service
        #: reconfiguration entry point (iff a tree) and recovery coordinator
        self.manager, self.failover = site.manager, site.failover
        self.clients: List[ClientProcess] = []
        self.sources: List[OpenLoopSource] = []
        self.execution_log = None
        #: (start offset in ms, client) of every roster client
        self._client_starts: List[Tuple[float, ClientProcess]] = []
        if config.arrivals is not None:
            self._build_sources()
        else:
            self._build_clients()
        self.obs_hub = None
        if config.obs:
            from repro.obs import attach_tracer
            self.obs_hub = attach_tracer(self)

    # ------------------------------------------------------------------

    def _client_roster(self) -> List[Tuple[str, str, Callable, float]]:
        """(client id, site, workload callable, start offset in ms) per
        closed-loop client: the workload's own roster if it supplies one,
        else ``clients_per_dc`` generated clients per site, 0.01 ms apart
        to avoid lock-step artifacts."""
        if hasattr(self.workload, "client_roster"):
            return self.workload.client_roster()
        roster = []
        for site in self.sites:
            for index in range(self.config.clients_per_dc):
                client_id = f"{site}-{index}"
                generator = self.workload.client_generator(
                    site, self.replication, self.rng, self.latency,
                    stream_name=f"client-{client_id}")
                roster.append((client_id, site, generator,
                               0.01 * len(roster)))
        return roster

    def _build_clients(self) -> None:
        for client_id, site, generator, start_at in self._client_roster():
            client = ClientProcess(self.sim, client_id, site, generator,
                                   merge=self.protocol.merge,
                                   metrics=self.metrics)
            client.attach_network(self.network)
            self.network.place(client.name, site)
            self.clients.append(client)
            self._client_starts.append((start_at, client))

    def _build_sources(self) -> None:
        """One open-loop arrival source per site (clients spawn on demand)."""
        def make_spawn(site: str, source_box: list):
            def spawn(client_id: str) -> OpenLoopClient:
                generator = self.workload.client_generator(
                    site, self.replication, self.rng, self.latency,
                    stream_name=f"client-{client_id}")
                client = OpenLoopClient(
                    self.sim, client_id, site, generator,
                    merge=self.protocol.merge, metrics=self.metrics,
                    execution_log=self.execution_log, source=source_box[0])
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
        for start_at, client in self._client_starts:
            self.sim.schedule(start_at, client.start)

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
        # one scan of the completions: operations per simulated second
        # of the measured window [warmup, duration)
        ops_completed = self.metrics.ops.ops_in_window(warmup, duration)
        return RunResults(
            throughput=ops_completed / ((duration - warmup) / 1000.0),
            ops_completed=ops_completed,
            duration=duration, warmup=warmup,
            visibility=self.metrics.visibility, ops=self.metrics.ops,
            cluster=self)


@dataclass(frozen=True)
class Scale:
    """Run sizing: simulated milliseconds and client population."""

    duration: float = 800.0
    warmup: float = 200.0
    clients_per_dc: int = 8
    facebook_clients_per_dc: int = 48
    num_partitions: int = 2
    seed: int = 1
    beam_width: int = 6


SMOKE = Scale(duration=400.0, warmup=100.0, clients_per_dc=4,
              facebook_clients_per_dc=24, beam_width=3)
DEFAULT = Scale()

_mconf_cache: Dict[Tuple, TreeTopology] = {}


def m_configuration(sites: Sequence[str] = tuple(EC2_REGIONS),
                    beam_width: int = 6,
                    weights: Optional[Dict] = None) -> TreeTopology:
    """The paper's M-configuration: Algorithm 3 over the given sites."""
    key = (tuple(sites), beam_width, None if weights is None
           else tuple(sorted(weights.items())))
    if key not in _mconf_cache:
        solved = find_configuration(list(sites), {s: s for s in sites},
                                    ec2_latency, weights=weights,
                                    beam_width=beam_width)
        _mconf_cache[key] = solved.topology
    return _mconf_cache[key]


def run_once(system: str, workload, scale: Scale,
             sites: Sequence[str] = tuple(EC2_REGIONS),
             topology: Optional[TreeTopology] = None,
             clients_per_dc: Optional[int] = None,
             before_run: Optional[Callable[[Cluster], None]] = None,
             **config_overrides) -> RunResults:
    """Build and run one cluster; the workhorse behind every experiment."""
    if topology is None and protocol_named(system).has_tree:
        topology = m_configuration(sites, beam_width=scale.beam_width)
    config = ClusterConfig(
        system=system, sites=tuple(sites),
        num_partitions=scale.num_partitions,
        clients_per_dc=clients_per_dc or scale.clients_per_dc,
        seed=scale.seed, saturn_topology=topology, **config_overrides)
    cluster = Cluster(config, workload)
    if before_run is not None:
        before_run(cluster)
    return cluster.run(duration=scale.duration, warmup=scale.warmup)
