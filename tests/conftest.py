"""Shared fixtures and mini-cluster helpers for the test suite."""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Set

import pytest

from repro.analysis.mc.scenario import BEACON_PERIOD, DETECTOR, build_chain3
from repro.core.replication import ReplicationMap
from repro.core.tree import TreeTopology
from repro.datacenter.overload import OverloadConfig
from repro.harness.runner import Cluster, ClusterConfig, MetricsHub
from repro.protocols import Deployment, protocol_named
from repro.sim.clock import ClockFactory
from repro.sim.engine import Simulator
from repro.sim.network import LatencyModel, Network
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.verify.checker import ExecutionLog
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.facebook import FacebookWorkload


#: seconds of setup + call + teardown per top-level test directory
_WALL_TIME: Dict[str, float] = defaultdict(float)


def pytest_runtest_logreport(report) -> None:
    path = report.nodeid.split("::")[0].split("/")
    _WALL_TIME["/".join(path[:2])] += report.duration


def pytest_terminal_summary(terminalreporter) -> None:
    """Wall time per top-level test directory, slowest first: the tier-1
    budget is their sum, so a directory that grows shows up here."""
    if not _WALL_TIME:
        return
    terminalreporter.section("wall time per test directory")
    for directory, seconds in sorted(_WALL_TIME.items(),
                                     key=lambda item: -item[1]):
        terminalreporter.write_line(f"{seconds:8.1f} s  {directory}")
    terminalreporter.write_line(f"{sum(_WALL_TIME.values()):8.1f} s  total")


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def rng() -> RngRegistry:
    return RngRegistry(seed=7)


def small_latency_model() -> LatencyModel:
    """Three sites with asymmetric distances (I close to F, T far)."""
    model = LatencyModel(local_latency=0.25)
    model.set("I", "F", 10.0)
    model.set("I", "T", 100.0)
    model.set("F", "T", 110.0)
    return model


#: MiniCluster's consistency mode -> the Saturn-family system running it
_SYSTEM_OF = {"saturn": "saturn", "timestamp": "saturn-ts",
              "eventual": "eventual"}


class MiniCluster:
    """3-datacenter Saturn-family deployment for component tests, built by
    the one site builder (:class:`repro.protocols.Deployment`)."""

    def __init__(self, consistency: str = "saturn",
                 topology: TreeTopology = None,
                 replication: ReplicationMap = None,
                 sink_batch_period: float = 1.0,
                 sink_heartbeat_period: float = 10.0,
                 bulk_heartbeat_period: float = 5.0,
                 parallel_concurrent_apply: bool = True,
                 beacon_period: float = 0.0,
                 beacon_timeout: float = 0.0,
                 max_skew: float = 0.5,
                 seed: int = 7) -> None:
        self.sim = Simulator()
        self.sites = ["I", "F", "T"]
        self.network = Network(self.sim, latency_model=small_latency_model(),
                               default_latency=0.25)
        self.metrics = MetricsHub(self.sim)
        self.replication = replication or ReplicationMap(self.sites)
        clocks = ClockFactory(self.sim, RngRegistry(seed=seed),
                              max_skew=max_skew)
        site = Deployment(
            self.sim, self.network, protocol_named(_SYSTEM_OF[consistency]),
            self.replication, self.sites, clocks.create, self.metrics,
            dict(num_partitions=2, sink_batch_period=sink_batch_period,
                 sink_heartbeat_period=sink_heartbeat_period,
                 bulk_heartbeat_period=bulk_heartbeat_period,
                 parallel_concurrent_apply=parallel_concurrent_apply,
                 beacon_timeout=beacon_timeout))
        site.attach(topology, beacon_period=beacon_period)
        self.service, self.dcs = site.service, site.datacenters

    def start(self) -> None:
        for dc in self.dcs.values():
            dc.start()

    def run(self, until: float) -> None:
        self.sim.run(until=until)


@pytest.fixture
def mini_cluster() -> MiniCluster:
    cluster = MiniCluster()
    cluster.start()
    return cluster


# -- message types the runs deliver ------------------------------------------

def handler_actors() -> List[type]:
    """Every ``Process`` subclass in ``repro`` that declares its own
    ``_HANDLERS`` table."""
    import repro.core.serializer  # noqa: F401  (load every actor class)
    import repro.datacenter.client  # noqa: F401
    import repro.protocols  # noqa: F401

    actors, stack = [], [Process]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.startswith("repro.") and \
                    "_HANDLERS" in vars(sub):
                actors.append(sub)
    return actors


class DeliveredTypes:
    """A passive ``Network.observers`` entry, installed as
    ``HazardMonitor.install`` installs the monitor: the type of every
    message the fabric delivers."""

    def __init__(self) -> None:
        self.types: Set[type] = set()

    def on_send(self, src: str, dst: str, message: Any,
                arrival: float) -> None:
        pass

    def on_deliver(self, src: str, dst: str, seq: int, message: Any) -> None:
        self.types.add(type(message))


@pytest.fixture(scope="session")
def delivered() -> DeliveredTypes:
    """One recorder for the session: the union over every run below and
    over every run a test hands to it with ``network.observers +=``."""
    return DeliveredTypes()


# -- session runs shared by their own tests and the delivery guard ----------

#: the overloaded run's admission cap, sink credits and serializer rate
CAP, CREDITS, RATE = 40, 16, 1.0


@pytest.fixture(scope="session")
def overload_run(delivered):
    """3-DC Saturn chain pushed well past its serviced label rate for
    400 ms, its admission, credit and ingress bounds sampled every
    simulated millisecond (it delivers LabelCredit)."""
    sites = ("I", "F", "T")
    topology = TreeTopology(
        serializer_sites={f"s{s}": s for s in sites},
        edges=[("sI", "sF"), ("sF", "sT")],
        attachments={s: f"s{s}" for s in sites})
    config = ClusterConfig(
        system="saturn", sites=sites, num_partitions=2, seed=11,
        saturn_topology=topology,
        arrivals=PoissonArrivals(rate_ops_s=9000.0),
        overload=OverloadConfig(sink_buffer_cap=CAP, sink_credits=CREDITS,
                                serializer_service_rate=RATE))
    cluster = Cluster(config, FacebookWorkload(num_users=2000,
                                               min_replicas=2,
                                               max_replicas=3))
    log = ExecutionLog(cluster.replication)
    cluster.attach_execution_log(log)
    cluster.network.observers += (delivered,)
    violations = []

    def check_bounds():
        for dc in cluster.datacenters.values():
            if dc.admission is not None and dc.admission.inflight > CAP:
                violations.append(
                    (cluster.sim.now, dc.dc_name, dc.admission.inflight))
            sink = dc.sink
            if sink.credits is not None and not 0 <= sink.credits <= CREDITS:
                violations.append(
                    (cluster.sim.now, dc.dc_name, sink.credits))
        for name, ser in cluster.service.serializers().items():
            queued = sum(len(b.labels) for b, _ in ser._ingress)
            if queued > CREDITS:  # exactly one sink per chain serializer
                violations.append((cluster.sim.now, name, queued))
        cluster.sim.schedule(1.0, check_bounds)

    cluster.sim.schedule(0.5, check_bounds)
    results = cluster.run(duration=400.0, warmup=100.0)
    return cluster, log, results, violations


@pytest.fixture(scope="session")
def healthy_beacon_run(delivered):
    """chain3 Saturn with serializer beacons and the failure detector
    on, run 60 ms without a fault (it delivers SerializerBeacon)."""
    scenario = build_chain3("fsm-healthy", horizon=60.0,
                            beacon_period=BEACON_PERIOD, dc_params=DETECTOR)
    scenario.network.observers += (delivered,)
    scenario.run()
    return scenario
