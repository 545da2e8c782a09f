"""FaultPlan validation and injector wiring."""

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultAction, FaultPlan, KINDS
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.process import Process


# ---------------------------------------------------------------------------
# FaultAction validation
# ---------------------------------------------------------------------------

def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultAction(kind="meteor-strike", at=1.0)


def test_missing_required_args_rejected():
    with pytest.raises(ValueError, match="missing args"):
        FaultAction(kind="partition-link", at=1.0, args={"src": "a"})


def test_exactly_one_timing_field_required():
    with pytest.raises(ValueError, match="exactly one"):
        FaultAction(kind="crash-tree", at=1.0, at_choices=(1.0, 2.0))
    with pytest.raises(ValueError, match="exactly one"):
        FaultAction(kind="crash-tree")


def test_negative_time_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        FaultAction(kind="crash-tree", at=-1.0)
    with pytest.raises(ValueError, match="non-negative"):
        FaultAction(kind="crash-tree", at_choices=(-1.0, 2.0))


def test_at_choices_must_be_non_empty_and_ascending():
    with pytest.raises(ValueError, match="non-empty"):
        FaultAction(kind="crash-tree", at_choices=())
    with pytest.raises(ValueError, match="ascending"):
        FaultAction(kind="crash-tree", at_choices=(5.0, 5.0))
    with pytest.raises(ValueError, match="ascending"):
        FaultAction(kind="crash-tree", at_choices=(5.0, 3.0))


def test_every_kind_declares_its_args():
    # the dict drives both validation and the handler dispatch: a typo in
    # either place shows up as an AttributeError at fire time, so check
    # the handlers exist for every declared kind
    for kind in KINDS:
        handler = "_do_" + kind.replace("-", "_")
        assert hasattr(FaultInjector, handler), kind


# ---------------------------------------------------------------------------
# injector
# ---------------------------------------------------------------------------

class _Recorder(Process):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, sender, message):
        self.received.append((self.sim.now, message))


def _deployment():
    sim = Simulator()
    net = Network(sim, default_latency=1.0)
    a, b = _Recorder(sim, "a"), _Recorder(sim, "b")
    a.attach_network(net)
    b.attach_network(net)
    return sim, net, a, b


def test_apply_twice_rejected():
    sim, net, _, _ = _deployment()
    injector = FaultInjector(sim, net)
    plan = FaultPlan(name="once", actions=[FaultAction(kind="isolate", at=1.0,
                                           args={"process": "b"})])
    injector.apply(plan)
    with pytest.raises(RuntimeError, match="already applied"):
        injector.apply(plan)


def test_serializer_fault_without_service_fails_loudly():
    sim, net, _, _ = _deployment()
    injector = FaultInjector(sim, net)
    injector.apply(FaultPlan(name="no-service", actions=[
        FaultAction(kind="crash-serializer", at=1.0, args={"tree": "sI"})]))
    with pytest.raises(RuntimeError, match="no SaturnService"):
        sim.run()


def test_reconfigure_without_manager_fails_loudly():
    sim, net, _, _ = _deployment()
    injector = FaultInjector(sim, net)
    injector.apply(FaultPlan(name="no-manager", actions=[
        FaultAction(kind="reconfigure", at=1.0)]))
    with pytest.raises(RuntimeError, match="no ReconfigurationManager"):
        sim.run()


def test_isolate_and_rejoin_fire_at_plan_times():
    sim, net, a, b = _deployment()
    injector = FaultInjector(sim, net)
    injector.apply(FaultPlan(name="blip", actions=[
        FaultAction(kind="isolate", at=2.0, args={"process": "b"}),
        FaultAction(kind="rejoin", at=6.0, args={"process": "b"}),
    ]))
    sim.schedule(3.0, lambda: a.send("b", "held"))
    sim.schedule(7.0, lambda: a.send("b", "direct"))
    sim.run()
    # the message sent into the outage is held by the reliable link and
    # released at rejoin time (t=6 + 1 ms latency), ahead of later traffic
    assert b.received == [(7.0, "held"), (8.0, "direct")]
    assert injector.fired == [(2.0, "isolate", 2.0), (6.0, "rejoin", 6.0)]


def test_delay_spike_and_clear_round_trip():
    sim, net, a, b = _deployment()
    injector = FaultInjector(sim, net)
    injector.apply(FaultPlan(name="spike", actions=[
        FaultAction(kind="delay-spike", at=0.0,
                    args={"src": "a", "dst": "b", "extra": 9.0}),
        FaultAction(kind="clear-delay", at=5.0,
                    args={"src": "a", "dst": "b"}),
    ]))
    sim.schedule(1.0, lambda: a.send("b", "slow"))
    sim.schedule(11.5, lambda: a.send("b", "fast"))
    sim.run()
    assert b.received == [(11.0, "slow"), (12.5, "fast")]


def test_open_timing_defaults_to_first_choice_without_chooser():
    sim, net, _, b = _deployment()
    injector = FaultInjector(sim, net)
    injector.apply(FaultPlan(name="open", actions=[
        FaultAction(kind="isolate", at_choices=(4.0, 8.0),
                    args={"process": "b"})]))
    sim.run()
    assert injector.fired == [(4.0, "isolate", 4.0)]


def test_open_timing_resolved_through_the_chooser():
    sim, net, _, b = _deployment()

    class Chooser:
        asked = []

        def choose_fault(self, name, k):
            self.asked.append((name, k))
            return 1

    injector = FaultInjector(sim, net)
    injector.chooser = Chooser()
    injector.apply(FaultPlan(name="open", actions=[
        FaultAction(kind="isolate", at_choices=(4.0, 8.0),
                    args={"process": "b"})]))
    sim.run()
    assert Chooser.asked == [("open[0]:isolate", 2)]
    assert injector.fired == [(8.0, "isolate", 8.0)]
