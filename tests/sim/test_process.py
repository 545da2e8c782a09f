"""Unit tests for the actor base class (timers, crash semantics)."""

import pytest

from repro.sim.network import Network
from repro.sim.process import Process


class Echo(Process):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.inbox = []

    def receive(self, sender, message):
        self.inbox.append(message)


def test_send_without_network_raises(sim):
    p = Echo(sim, "p")
    with pytest.raises(RuntimeError):
        p.send("q", "hi")


def test_set_timer_fires(sim):
    p = Echo(sim, "p")
    fired = []
    p.set_timer(3.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [3.0]


def test_set_timer_suppressed_after_crash(sim):
    p = Echo(sim, "p")
    fired = []
    p.set_timer(3.0, lambda: fired.append(1))
    p.crash()
    sim.run()
    assert fired == []


def test_every_repeats(sim):
    p = Echo(sim, "p")
    fired = []
    p.every(2.0, lambda: fired.append(sim.now))
    sim.run(until=7.0)
    assert fired == [2.0, 4.0, 6.0]


def test_every_rejects_nonpositive_period(sim):
    p = Echo(sim, "p")
    with pytest.raises(ValueError):
        p.every(0.0, lambda: None)


def test_every_cancel_stops_chain(sim):
    p = Echo(sim, "p")
    fired = []
    timer = p.every(2.0, lambda: fired.append(sim.now))
    sim.run(until=5.0)
    timer.cancel()
    sim.run(until=20.0)
    assert fired == [2.0, 4.0]


def test_every_stops_on_crash(sim):
    p = Echo(sim, "p")
    fired = []
    p.every(2.0, lambda: fired.append(sim.now))
    sim.schedule(5.0, p.crash)
    sim.run(until=20.0)
    assert fired == [2.0, 4.0]


def test_recover_resumes_message_delivery(sim):
    net = Network(sim, default_latency=1.0)
    a, b = Echo(sim, "a"), Echo(sim, "b")
    a.attach_network(net)
    b.attach_network(net)
    b.crash()
    a.send("b", "lost")
    sim.run()
    b.restart()
    a.send("b", "kept")
    sim.run()
    assert b.inbox == ["kept"]


def test_repr(sim):
    assert "Echo" in repr(Echo(sim, "p"))


def test_restart_is_a_noop_while_alive(sim):
    p = Echo(sim, "p")
    p.restart()
    assert p.alive
    assert p.restarts == 0


def test_restart_revives_and_counts(sim):
    p = Echo(sim, "p")
    p.crash()
    assert not p.alive
    p.restart()
    assert p.alive
    assert p.restarts == 1


def test_restart_invokes_rearm_hook():
    """Periodic timers stop permanently when a tick finds the process dead;
    on_restart is where a process re-arms them."""
    from repro.sim.engine import Simulator

    class Rearming(Echo):
        def __init__(self, sim, name):
            super().__init__(sim, name)
            self.ticks = []
            self.every(2.0, lambda: self.ticks.append(self.sim.now))

        def on_restart(self):
            self.every(2.0, lambda: self.ticks.append(self.sim.now))

    sim = Simulator()
    p = Rearming(sim, "p")
    sim.schedule(5.0, p.crash)
    sim.schedule(9.0, p.restart)
    sim.run(until=14.0)
    assert p.ticks == [2.0, 4.0, 11.0, 13.0]
    assert p.restarts == 1
