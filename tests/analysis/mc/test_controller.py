"""ScheduleController: decision recording, scripting, and kernel parity."""

import pytest

from repro.analysis.mc.controller import (DELAY, ScheduleController, TIE,
                                          decisions_hash, nondefault_count)
from repro.analysis.mc.scenario import build_scenario
from repro.analysis.mc.strategies import FifoStrategy
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.process import Process


def test_controlled_fifo_run_matches_uncontrolled_run():
    """An all-default controller must not change the execution at all."""
    plain = build_scenario("chain3")
    plain.run()

    controlled = build_scenario("chain3")
    controller = ScheduleController(FifoStrategy())
    controller.install(controlled.sim, controlled.network)
    controlled.run()

    assert controlled.digest() == plain.digest()
    # every recorded decision was the FIFO default
    assert nondefault_count(controller.trace) == 0
    assert len(controller.trace) > 0


def test_scripted_tie_choice_flips_event_order():
    sim = Simulator()
    order = []
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(1.0, lambda: order.append("b"))
    controller = ScheduleController(FifoStrategy(), script=[[TIE, 2, 1]])
    controller.install(sim)
    sim.run()
    assert order == ["b", "a"]
    assert controller.trace == [[TIE, 2, 1]]


def test_out_of_range_scripted_choice_falls_back_to_fifo():
    sim = Simulator()
    order = []
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(1.0, lambda: order.append("b"))
    controller = ScheduleController(FifoStrategy(), script=[[TIE, 2, 9]])
    controller.install(sim)
    sim.run()
    assert order == ["a", "b"]
    assert controller.trace == [[TIE, 2, 0]]


def test_single_candidate_is_not_a_decision_point():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    controller = ScheduleController(FifoStrategy())
    controller.install(sim)
    sim.run()
    assert controller.trace == []


def test_install_refuses_second_controller():
    sim = Simulator()
    ScheduleController(FifoStrategy()).install(sim)
    with pytest.raises(RuntimeError):
        ScheduleController(FifoStrategy()).install(sim)


def test_untargeted_links_are_not_decision_points():
    controller = ScheduleController(
        FifoStrategy(), delay_links=frozenset({("a", "b")}))
    assert controller._perturb("x", "y") == 0.0
    assert controller.trace == []
    assert controller._perturb("a", "b") == 0.0
    assert controller.trace == [[DELAY, 0.0]]


def test_decisions_hash_is_stable_and_sensitive():
    d1 = [[TIE, 2, 1], [DELAY, 1.5]]
    h = decisions_hash("chain3", None, d1)
    assert h == decisions_hash("chain3", None, [list(x) for x in d1])
    assert h != decisions_hash("chain3", None, [[TIE, 2, 0], [DELAY, 1.5]])
    assert h != decisions_hash("chain3", "drop-fifo", d1)
    assert h != decisions_hash("reconfig-chain3", None, d1)


class _LastStrategy(FifoStrategy):
    """Always runs the last candidate: the most reordering a tie allows."""

    def choose_tie(self, time, events):
        return len(events) - 1


class _Inbox(Process):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, sender, message):
        self.received.append(message)


class _Watcher:
    def on_send(self, src, dst, message, arrival):
        pass

    def on_deliver(self, src, dst, seq, message):
        pass


@pytest.mark.parametrize("observed", [False, True])
def test_tie_choice_never_reorders_one_link(observed):
    """Same-instant deliveries on one link arrive in send order whatever
    the strategy picks: a FIFO link (and TCP) cannot reorder them, so the
    controller offers only the oldest of them."""
    sim = Simulator()
    net = Network(sim, default_latency=1.0)
    if observed:
        net.observers += (_Watcher(),)
    a, b = _Inbox(sim, "a"), _Inbox(sim, "b")
    a.attach_network(net)
    b.attach_network(net)
    order = []
    for message in ("m1", "m2", "m3"):
        a.send("b", message)
    sim.schedule(1.0, lambda: order.append(list(b.received)))
    controller = ScheduleController(_LastStrategy())
    controller.install(sim, net)
    sim.run()
    assert b.received == ["m1", "m2", "m3"]
    # the timer still races the link: it ran before every delivery, and
    # each tie offered one delivery beside it
    assert order == [[]]
    assert controller.trace == [[TIE, 2, 1]]
