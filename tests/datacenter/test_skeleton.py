"""The datacenter skeleton every protocol shares (repro.datacenter.base):
one reply shape and one set of recorder calls for all nine systems."""

from collections import Counter

import pytest

from repro.analysis.mc.scenario import build_chain3
from repro.datacenter.messages import (AttachOk, ClientAttach, ClientMigrate,
                                       ClientRead, ClientUpdate, MigrateReply,
                                       ReadReply, UpdateReply)
from repro.protocols import PROTOCOLS
from repro.sim.process import Process


class Probe(Process):
    """Sends client requests under its own process name; keeps replies."""

    def __init__(self, sim):
        super().__init__(sim, "probe")
        self.replies = []

    def receive(self, sender, message):
        self.replies.append(message)


@pytest.mark.parametrize("system", sorted(PROTOCOLS))
def test_every_reply_echoes_the_request_client_id(system):
    """AttachOk, ReadReply, UpdateReply and MigrateReply carry the
    request's ``client_id``, not the sender's process name."""
    scenario = build_chain3(f"{system}-echo", horizon=60.0, system=system)
    probe = Probe(scenario.sim)
    probe.attach_network(scenario.network)
    scenario.network.place(probe.name, "I")
    for request in (ClientAttach("c7", None),
                    ClientUpdate("c7", "g0:echo", 8, None),
                    ClientRead("c7", "g0:echo"),
                    ClientMigrate("c7", "F", None)):
        probe.send("dc:I", request)
    scenario.run()
    assert sorted(type(reply).__name__ for reply in probe.replies) == sorted(
        cls.__name__ for cls in (AttachOk, UpdateReply, ReadReply,
                                 MigrateReply))
    assert {reply.client_id for reply in probe.replies} == {"c7"}


@pytest.mark.parametrize("system", sorted(PROTOCOLS))
def test_recorders_agree_with_each_other_and_the_datacenters(system):
    """The visibility recorder, the execution log and the datacenters
    count the same remote visibilities, and every update a client saw
    acknowledged was recorded at its origin exactly once."""
    scenario = build_chain3(f"{system}-recorders", horizon=400.0,
                            system=system)
    log = scenario.log
    issued = Counter()
    acknowledged = []
    record_update = log.record_update
    record_update_deps = log.record_update_deps

    def counting_update(label, origin_dc, created_at):
        issued[(label.ts, label.src)] += 1
        record_update(label, origin_dc, created_at)

    def counting_deps(version, deps):
        acknowledged.append(version)
        record_update_deps(version, deps)

    log.record_update = counting_update
    log.record_update_deps = counting_deps
    scenario.run()

    remote_visible = sum(
        1 for dc, positions in log._visible_pos.items()
        for version in positions if log.updates[version].origin != dc)
    applied = sum(dc.updates_applied for dc in scenario.datacenters.values())
    samples = scenario.cluster.metrics.visibility.count()
    assert samples == remote_visible == applied > 0
    assert acknowledged and sorted(issued) == sorted(acknowledged)
    assert set(issued.values()) == {1}


@pytest.mark.parametrize("system", sorted(PROTOCOLS))
def test_updates_applied_counts_record_visible_per_datacenter(system):
    """``Datacenter.updates_applied`` is the one applied-update counter:
    at every datacenter it equals that datacenter's ``record_visible``
    calls."""
    scenario = build_chain3(f"{system}-applied", horizon=400.0,
                            system=system)
    visible = Counter()
    record_visible = scenario.log.record_visible

    def counting_visible(label, dc, at):
        visible[dc] += 1
        record_visible(label, dc, at)

    scenario.log.record_visible = counting_visible
    scenario.run()
    assert sum(visible.values()) > 0
    assert {site: dc.updates_applied
            for site, dc in scenario.datacenters.items()} == {
        site: visible[site] for site in scenario.datacenters}
