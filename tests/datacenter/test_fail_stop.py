"""Fail-stop: a crashed datacenter sends nothing, not even the replication
fan-out of storage work that was already in flight when it crashed."""

import pytest

from repro.harness.runner import Cluster, ClusterConfig
from repro.protocols import SYSTEMS
from repro.workloads.synthetic import SyntheticWorkload

CRASH_AT = 50.0


class SendsFrom:
    """Network observer: when *name* sends what."""

    def __init__(self, sim, name):
        self.sim, self.name, self.sent = sim, name, []

    def on_send(self, src, dst, message, arrival):
        if src == self.name:
            self.sent.append((self.sim.now, type(message).__name__))

    def on_deliver(self, src, dst, seq, message):
        pass


@pytest.mark.parametrize("system", SYSTEMS)
def test_a_crashed_datacenter_sends_nothing(system):
    cluster = Cluster(ClusterConfig(system=system, sites=("I", "F", "T"),
                                    clients_per_dc=2, seed=3),
                      SyntheticWorkload(read_ratio=0.0))
    dc = cluster.datacenters["I"]
    tap = SendsFrom(cluster.sim, dc.name)
    cluster.network.observers += (tap,)
    cluster.sim.schedule(CRASH_AT, dc.crash)  # runs first at that instant
    cluster.run(duration=60.0, warmup=10.0)
    assert any(at < CRASH_AT for at, _ in tap.sent)
    assert [sent for sent in tap.sent if sent[0] >= CRASH_AT] == []
