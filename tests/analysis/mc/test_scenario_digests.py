"""Every mc and chaos scenario, pinned to its delivery-trace digest.

``golden/scenario_digests.json`` holds the ``HazardMonitor`` trace digest
of all 13 ``SCENARIOS`` under the default (FIFO) schedule, captured at
dbf5ae4 from the hand-wired builders that ``Cluster`` replaced.  Its
``mc`` and ``chaos`` sections are the two catalogs the scenarios came
from before they became one table.  A mismatch means the assembly — construction
order, a default, the client start stagger — changed the simulated
execution; regenerate only for a deliberate protocol change.
"""

import itertools
import json
from pathlib import Path

import pytest

from repro.analysis.mc.scenario import SCENARIOS, build_scenario

GOLDEN = json.loads((Path(__file__).parent / "golden"
                     / "scenario_digests.json").read_text())


def test_golden_covers_both_catalogs():
    assert not set(GOLDEN["mc"]) & set(GOLDEN["chaos"])
    assert sorted({**GOLDEN["mc"], **GOLDEN["chaos"]}) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(GOLDEN["mc"]))
def test_mc_scenario_digest_is_pinned(name):
    scenario = build_scenario(name)
    scenario.run()
    assert scenario.digest() == GOLDEN["mc"][name]


@pytest.mark.parametrize("name", sorted(GOLDEN["chaos"]))
def test_chaos_scenario_digest_is_pinned(name):
    scenario = build_scenario(name)
    scenario.run()
    assert scenario.digest() == GOLDEN["chaos"][name]


def _key_edges(log):
    """(dependency's key, key) over every recorded causal past."""
    return {(log.updates[dep].key, record.key)
            for version, record in log.updates.items()
            for dep in log.past(version)}


def test_scenario_scripts_state_their_causal_chain():
    """The scripts build real chains: the causal pasts the clients record
    link the keys the way the scripts read."""
    plain = build_scenario("chain3")
    plain.run()
    assert _key_edges(plain.log) == {
        ("g0:a", "g0:b"), ("g0:a", "g1:p"), ("g0:b", "g1:p"),
        ("g0:b", "g0:y")}
    hardened = build_scenario("serializer-crash")
    hardened.run()
    assert ("g0:y", "g0:c") in _key_edges(hardened.log)


@pytest.mark.parametrize("order", list(itertools.permutations(range(2))))
def test_monitor_digest_ignores_observer_order(order):
    """The monitor and the routing oracle share the network's observer
    tuple; in either order the monitor's digest is the one it records
    alone (the pinned one)."""
    scenario = build_scenario("chain3")
    network = scenario.cluster.network
    assert network.observers == (scenario.monitor, scenario.routing_oracle)
    network.observers = tuple(network.observers[i] for i in order)
    scenario.run()
    assert scenario.digest() == GOLDEN["mc"]["chain3"]
    assert scenario.monitor.report().messages_delivered > 0


def test_attach_tracer_leaves_the_observers_alone():
    """Obs records what the components tell it and never watches the
    fabric: attaching it adds no observer and moves no digest."""
    from repro.obs import attach_tracer

    scenario = build_scenario("chain3")
    network = scenario.cluster.network
    observers = network.observers
    hub = attach_tracer(scenario)
    assert network.observers == observers == (scenario.monitor,
                                              scenario.routing_oracle)
    scenario.run()
    assert scenario.digest() == GOLDEN["mc"]["chain3"]
    assert hub.tracer.num_chains() > 0
