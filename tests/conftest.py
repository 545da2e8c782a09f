"""Shared fixtures and mini-cluster helpers for the test suite."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict

import pytest

from repro.core.replication import ReplicationMap
from repro.core.service import SaturnService
from repro.core.tree import TreeTopology
from repro.datacenter.datacenter import DatacenterParams, SaturnDatacenter
from repro.harness.runner import MetricsHub
from repro.sim.clock import ClockFactory
from repro.sim.cpu import CostModel
from repro.sim.engine import Simulator
from repro.sim.network import LatencyModel, Network
from repro.sim.rng import RngRegistry


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


class MiniCluster:
    """Hand-wired 3-datacenter Saturn deployment for component tests."""

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
        self.rng = RngRegistry(seed=seed)
        self.sites = ["I", "F", "T"]
        self.network = Network(self.sim, latency_model=small_latency_model(),
                               default_latency=0.25, rng=self.rng)
        self.metrics = MetricsHub(self.sim)
        self.replication = replication or ReplicationMap(self.sites)
        clocks = ClockFactory(self.sim, self.rng, max_skew=max_skew)
        self.cost = CostModel()
        self.service = None
        if consistency == "saturn":
            self.service = SaturnService(self.sim, self.network,
                                         self.replication,
                                         beacon_period=beacon_period)
            topology = topology or TreeTopology.star(
                "I", {s: s for s in self.sites})
            self.service.install_tree(topology, epoch=0)
        self.dcs = {}
        for site in self.sites:
            params = DatacenterParams(
                name=site, site=site, num_partitions=2,
                consistency=consistency,
                sink_batch_period=sink_batch_period,
                sink_heartbeat_period=sink_heartbeat_period,
                bulk_heartbeat_period=bulk_heartbeat_period,
                parallel_concurrent_apply=parallel_concurrent_apply,
                beacon_timeout=beacon_timeout)
            dc = SaturnDatacenter(self.sim, params, self.replication,
                                  self.cost, clocks.create(),
                                  metrics=self.metrics)
            dc.attach_network(self.network)
            self.network.place(dc.name, site)
            dc.saturn = self.service
            self.dcs[site] = dc

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
