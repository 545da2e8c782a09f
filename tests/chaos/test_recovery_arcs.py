"""Every recovery arc, pinned instant by instant.

``golden/recovery_arcs.json`` holds, for every fault scenario of
``SCENARIOS`` (the five chaos entries and ``crash-chain3``) under its
default schedule, ``Scenario.summary`` — the ``summary`` of ``python -m
repro.analysis.mc --strategy fifo --json`` — without the trace digest,
which ``tests/analysis/mc/test_scenario_digests.py`` pins: each detector's
suspected/degraded/attached transitions and degraded spans, the faults
fired, the coordinator's recoveries, escalations, sink replays and the
recorded update count.  Where a scenario has an ``AutoFailover``
coordinator, its timed suspected/cleared/reachable/reattached trail is
pinned too.  A mismatch means a datacenter now learns of an outage, or
of its end, at a different instant.  If a change is *deliberate*,
regenerate with::

    PYTHONPATH=src:. python -c "
    import json
    from tests.chaos.test_recovery_arcs import arc, FAULT_SCENARIOS
    print(json.dumps({name: arc(name) for name in FAULT_SCENARIOS},
                     indent=2, sort_keys=True))
    " > tests/chaos/golden/recovery_arcs.json
"""

import json
from pathlib import Path

import pytest

from repro.analysis.mc.oracles import evaluate_oracles
from repro.analysis.mc.scenario import SCENARIOS, build_scenario

GOLDEN = Path(__file__).parent / "golden" / "recovery_arcs.json"

#: every entry of the one scenario table that runs a fault plan
FAULT_SCENARIOS = sorted(name for name in SCENARIOS
                         if build_scenario(name).fault_plan is not None)


def arc(name: str) -> dict:
    """The JSON form of scenario *name*'s degrade/recover arc."""
    scenario = build_scenario(name)
    scenario.run()
    summary = scenario.summary(evaluate_oracles(scenario))
    del summary["digest"]
    if scenario.failover is not None:
        summary["failover_events"] = [
            [t, kind, dc] for t, kind, dc in scenario.failover.events]
    return json.loads(json.dumps(summary))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_fault_scenario(golden):
    assert sorted(golden) == FAULT_SCENARIOS


@pytest.mark.parametrize("name", FAULT_SCENARIOS)
def test_recovery_arc_is_pinned(golden, name):
    assert arc(name) == golden[name]
