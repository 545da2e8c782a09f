"""Model checking the stabilization baselines.

The baseline chain3 scenarios (gentlerain / cure / eunomia / okapi) run
under the same schedule controller and oracles as Saturn's; these tests
sweep their tie and delay spaces and unit-test the routing oracle's
destination-set check, which is all a protocol without a tree promises.
"""

import pytest

from repro.analysis.mc.checker import ModelChecker
from repro.analysis.mc.oracles import RoutingOracle
from repro.analysis.mc.strategies import FifoStrategy
from repro.baselines.base import BaselinePayload
from repro.baselines.eunomia import EunomiaBatch
from repro.core.label import Label, LabelType
from repro.core.replication import ReplicationMap

BASELINE_SCENARIOS = ("gentlerain-chain3", "cure-chain3",
                      "eunomia-chain3", "okapi-chain3")


@pytest.mark.parametrize("name", BASELINE_SCENARIOS)
def test_fifo_run_is_clean_and_has_choice_points(name):
    outcome = ModelChecker(name).run_once(FifoStrategy())
    assert outcome.ok, outcome.violations
    assert outcome.decisions, "a run with zero choice points proves nothing"


@pytest.mark.parametrize("name", ("eunomia-chain3", "okapi-chain3"))
def test_exhaustive_sweep_is_clean(name):
    result = ModelChecker(name).sweep_exhaustive(depth=3)
    assert result.ok, [o.violations for o in result.counterexamples]
    assert result.runs > 1


@pytest.mark.parametrize("name", ("eunomia-chain3", "okapi-chain3"))
def test_delay_sweep_is_clean(name):
    result = ModelChecker(name).sweep_delay(budget=6, seed=11)
    assert result.ok, [o.violations for o in result.counterexamples]
    assert len(result.digests) > 1


# ---------------------------------------------------------------------------
# RoutingOracle on baseline payloads
# ---------------------------------------------------------------------------

def _payload(key, origin="I"):
    label = Label(LabelType.UPDATE, src=f"{origin}/g", ts=1.0, target=key,
                  origin_dc=origin)
    return BaselinePayload(label=label, key=key, value_size=8,
                           created_at=1.0, stamp=1.0)


def _oracle():
    replication = ReplicationMap(["I", "F", "T"])
    replication.set_group("g0", ("I", "F", "T"))
    replication.set_group("g1", ("I", "F"))
    return RoutingOracle(replication)


def test_oracle_accepts_legal_payload_delivery():
    oracle = _oracle()
    oracle.on_deliver("dc:I", "dc:F", 0, _payload("g1:k"))
    assert oracle.violations == []


def test_oracle_flags_delivery_back_to_origin():
    oracle = _oracle()
    oracle.on_deliver("seq:I", "dc:I", 0, _payload("g0:k"))
    assert len(oracle.violations) == 1
    assert "origin" in oracle.violations[0]


def test_oracle_flags_delivery_to_non_replica():
    oracle = _oracle()
    oracle.on_deliver("dc:I", "dc:T", 0, _payload("g1:k"))
    assert len(oracle.violations) == 1
    assert "non-replica" in oracle.violations[0]


def test_oracle_checks_inside_eunomia_batches():
    oracle = _oracle()
    batch = EunomiaBatch(origin_dc="I",
                         payloads=(_payload("g0:k"), _payload("g1:k")),
                         stable_ts=1.0)
    oracle.on_deliver("seq:I", "dc:T", 0, batch)
    assert len(oracle.violations) == 1  # g0:k fine, g1:k leaked


def test_oracle_ignores_sequencer_ingress_and_other_messages():
    oracle = _oracle()
    # datacenter -> its own sequencer is origin-side routing, not delivery
    oracle.on_deliver("dc:I", "seq:I", 0, _payload("g1:k", origin="I"))
    oracle.on_deliver("dc:I", "dc:F", 0, object())
    assert oracle.violations == []
