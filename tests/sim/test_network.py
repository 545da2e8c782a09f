"""Unit tests for the simulated network (FIFO links, latency, faults)."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.network import LatencyModel, Network
from repro.sim.process import Process
from repro.sim.rng import RngRegistry


class Recorder(Process):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, sender, message):
        self.received.append((self.sim.now, sender, message))


def make_net(sim, model=None):
    return Network(sim, latency_model=model, default_latency=1.0)


def test_basic_delivery_with_latency(sim):
    net = make_net(sim)
    a, b = Recorder(sim, "a"), Recorder(sim, "b")
    a.attach_network(net)
    b.attach_network(net)
    a.send("b", "hello")
    sim.run()
    assert b.received == [(1.0, "a", "hello")]


def test_duplicate_process_name_rejected(sim):
    net = make_net(sim)
    Recorder(sim, "a").attach_network(net)
    with pytest.raises(ValueError):
        Recorder(sim, "a").attach_network(net)


def test_unknown_destination_raises(sim):
    net = make_net(sim)
    a = Recorder(sim, "a")
    a.attach_network(net)
    with pytest.raises(KeyError):
        a.send("ghost", "boo")


def test_fifo_order_with_jitter(sim):
    """Even with jittered delays, a later message never overtakes an
    earlier one: the per-send perturbation plays the jitter, and the FIFO
    clamp in ``send`` holds the link order."""
    net = make_net(sim)
    draws = RngRegistry(seed=3).stream("perturb")
    net.perturb = lambda src, dst: draws.uniform(0.0, 5.0)
    a, b = Recorder(sim, "a"), Recorder(sim, "b")
    a.attach_network(net)
    b.attach_network(net)
    for i in range(50):
        a.send("b", i)
    sim.run()
    assert [m for _, _, m in b.received] == list(range(50))
    times = [t for t, _, _ in b.received]
    assert times == sorted(times)


def test_latency_model_sites(sim):
    model = LatencyModel(local_latency=0.5)
    model.set("X", "Y", 30.0)
    net = Network(sim, latency_model=model)
    a, b, c = Recorder(sim, "a"), Recorder(sim, "b"), Recorder(sim, "c")
    for p in (a, b, c):
        p.attach_network(net)
    net.place("a", "X")
    net.place("b", "Y")
    net.place("c", "X")
    a.send("b", "far")
    a.send("c", "near")
    sim.run()
    assert b.received[0][0] == 30.0
    assert c.received[0][0] == 0.5  # intra-site


def test_latency_model_symmetric():
    model = LatencyModel()
    model.set("X", "Y", 12.0)
    assert model.get("Y", "X") == 12.0
    assert model.get("X", "X") == model.local_latency


def test_latency_model_unknown_pair_raises():
    model = LatencyModel()
    with pytest.raises(KeyError):
        model.get("X", "Y")


def test_latency_model_rejects_negative():
    model = LatencyModel()
    with pytest.raises(ValueError):
        model.set("X", "Y", -1.0)


def test_partition_holds_messages_until_healed(sim):
    """Links are reliable FIFO channels: a partition delays traffic, it
    does not silently lose it (silent loss on a live channel would be
    undetectable by any protocol — only crashes lose state)."""
    net = make_net(sim)
    a, b = Recorder(sim, "a"), Recorder(sim, "b")
    a.attach_network(net)
    b.attach_network(net)
    net.partition("a", "b")
    a.send("b", "held")
    sim.run()
    assert b.received == []  # nothing crosses while the link is down
    net.heal("a", "b")
    a.send("b", "fresh")
    sim.run()
    # the held message is re-sent at heal time (t=0 here) and keeps its
    # place in the FIFO order ahead of anything sent afterwards
    assert [m for _, _, m in b.received] == ["held", "fresh"]


def test_extra_delay_injection(sim):
    net = make_net(sim)
    a, b = Recorder(sim, "a"), Recorder(sim, "b")
    a.attach_network(net)
    b.attach_network(net)
    net.inject_extra_delay("a", "b", 9.0)
    a.send("b", "slow")
    sim.run()
    assert b.received[0][0] == 10.0  # 1 base + 9 injected


def test_site_delay_injection(sim):
    model = LatencyModel()
    model.set("X", "Y", 10.0)
    net = Network(sim, latency_model=model)
    a, b = Recorder(sim, "a"), Recorder(sim, "b")
    a.attach_network(net)
    b.attach_network(net)
    net.place("a", "X")
    net.place("b", "Y")
    net.inject_site_delay("X", "Y", 25.0)
    a.send("b", "m")
    sim.run()
    assert b.received[0][0] == 35.0


def test_crashed_process_drops_incoming(sim):
    net = make_net(sim)
    a, b = Recorder(sim, "a"), Recorder(sim, "b")
    a.attach_network(net)
    b.attach_network(net)
    b.crash()
    a.send("b", "void")
    sim.run()
    assert b.received == []


def test_crashed_process_cannot_send(sim):
    net = make_net(sim)
    a, b = Recorder(sim, "a"), Recorder(sim, "b")
    a.attach_network(net)
    b.attach_network(net)
    a.crash()
    a.send("b", "void")
    sim.run()
    assert b.received == []


def test_message_and_byte_accounting(sim):
    net = make_net(sim)
    a, b = Recorder(sim, "a"), Recorder(sim, "b")
    a.attach_network(net)
    b.attach_network(net)
    net.send("a", "b", "x", size_bytes=128)
    net.send("a", "b", "y", size_bytes=64)
    sim.run()
    assert net.messages_sent == 2
    assert net.bytes_sent == 192


def test_isolate_holds_traffic_in_both_directions(sim):
    net = make_net(sim)
    a, b = Recorder(sim, "a"), Recorder(sim, "b")
    a.attach_network(net)
    b.attach_network(net)
    net.isolate("b")
    a.send("b", "inbound")
    b.send("a", "outbound")
    sim.run()
    assert a.received == []
    assert b.received == []
    net.rejoin("b")
    a.send("b", "again")
    sim.run()
    # rejoin releases the held traffic in both directions, in send order
    assert [m for _, _, m in a.received] == ["outbound"]
    assert [m for _, _, m in b.received] == ["inbound", "again"]


def test_isolation_spares_messages_already_in_flight(sim):
    """Outages act at send time: a message launched before the isolation
    still lands (the chaos scenarios rely on this to partition a
    serializer with one batch already on the wire)."""
    net = make_net(sim)
    a, b = Recorder(sim, "a"), Recorder(sim, "b")
    a.attach_network(net)
    b.attach_network(net)
    a.send("b", "in-flight")
    net.isolate("b")
    sim.run()
    assert [m for _, _, m in b.received] == ["in-flight"]


def test_held_messages_keep_fifo_order_across_the_outage(sim):
    """A message still in flight when the partition starts must not be
    overtaken by held traffic released at heal time, and held traffic must
    not be overtaken by messages sent after the heal."""
    net = make_net(sim)
    a, b = Recorder(sim, "a"), Recorder(sim, "b")
    a.attach_network(net)
    b.attach_network(net)
    net.inject_extra_delay("a", "b", 10.0)  # in-flight survives the outage
    a.send("b", "before")
    net.partition("a", "b")
    a.send("b", "during-1")
    a.send("b", "during-2")
    sim.schedule(5.0, lambda: net.heal("a", "b"))
    sim.schedule(5.0, lambda: a.send("b", "after"))
    sim.run()
    assert [m for _, _, m in b.received] == [
        "before", "during-1", "during-2", "after"]


class Watcher:
    """A network observer recording what it is shown."""

    def __init__(self, sim):
        self.sim = sim
        self.sent = []
        self.delivered = []

    def on_send(self, src, dst, message, arrival):
        self.sent.append((self.sim.now, src, dst, message))

    def on_deliver(self, src, dst, seq, message):
        self.delivered.append((src, dst, seq, message))


def test_traced_runs_observe_held_messages_on_release(sim):
    net = make_net(sim)
    a, b = Recorder(sim, "a"), Recorder(sim, "b")
    a.attach_network(net)
    b.attach_network(net)
    watcher = Watcher(sim)
    net.observers += (watcher,)
    a.send("b", "before")
    sim.run()
    net.isolate("b")
    a.send("b", "void")
    sim.run()
    assert watcher.sent == [(0.0, "a", "b", "before")]  # "void" is held
    assert [m for _, _, m in b.received] == ["before"]
    net.rejoin("b")
    a.send("b", "after")
    sim.run()
    # re-sent at rejoin time, and the link's numbering carries on
    assert watcher.sent[1:] == [(1.0, "a", "b", "void"),
                                (1.0, "a", "b", "after")]
    assert watcher.delivered == [("a", "b", 1, "before"),
                                 ("a", "b", 2, "void"),
                                 ("a", "b", 3, "after")]
    assert [m for _, _, m in b.received] == ["before", "void", "after"]


def test_every_observer_sees_every_send_and_delivery_numbered_per_link(sim):
    net = make_net(sim)
    a, b, c = Recorder(sim, "a"), Recorder(sim, "b"), Recorder(sim, "c")
    for process in (a, b, c):
        process.attach_network(net)
    first, second = Watcher(sim), Watcher(sim)
    net.observers += (first,)
    net.observers += (second,)
    for i in range(6):
        a.send("b", i)
        a.send("c", i)
        b.send("a", i)
    sim.run()
    assert first.sent == second.sent and len(first.sent) == 18
    assert first.delivered == second.delivered
    for link in (("a", "b"), ("a", "c"), ("b", "a")):
        assert [(seq, m) for src, dst, seq, m in first.delivered
                if (src, dst) == link] == [(i + 1, i) for i in range(6)]


def test_unobserved_send_schedules_the_targets_deliver_directly(sim):
    net = make_net(sim)
    a, b = Recorder(sim, "a"), Recorder(sim, "b")
    a.attach_network(net)
    b.attach_network(net)
    assert net.observers == ()
    a.send("b", "plain")
    [(time, _, fn, args)] = sim._heap
    assert (time, fn, args) == (1.0, b.deliver, ("a", "plain"))
    net.observers += (Watcher(sim),)
    a.send("b", "observed")
    assert sim._heap[1][2] != b.deliver
    sim.run()
    assert [m for _, _, m in b.received] == ["plain", "observed"]
    assert net._links[("a", "b")].observed == 1  # untraced sends are not counted


# -- resolved routes: cached per link, never stale ---------------------------

def sited_net(sim):
    model = LatencyModel(local_latency=0.5)
    model.set("X", "Y", 30.0)
    model.set("X", "Z", 70.0)
    model.set("Y", "Z", 45.0)
    net = Network(sim, latency_model=model, default_latency=1.0)
    a, b = Recorder(sim, "a"), Recorder(sim, "b")
    a.attach_network(net)
    b.attach_network(net)
    return net, a, b


def test_place_after_first_send_changes_the_next_latency(sim):
    net, a, b = sited_net(sim)
    a.send("b", "unplaced")             # default latency, route now cached
    net.place("a", "X")
    net.place("b", "Y")
    a.send("b", "x-y")
    sim.run()
    net.place("b", "Z")                 # the receiver moves
    a.send("b", "x-z")
    net.place("a", "Z")                 # the sender moves next to it
    b.send("a", "z-z")
    sim.run()
    assert b.received == [(1.0, "a", "unplaced"), (30.0, "a", "x-y"),
                          (100.0, "a", "x-z")]
    assert a.received == [(30.5, "b", "z-z")]


def test_place_drops_only_the_placed_processs_routes(sim):
    net, a, b = sited_net(sim)
    net.place("a", "X")
    net.place("b", "Y")
    a.send("b", "x-y")
    b.send("a", "y-x")
    a.send("a", "x-x")
    routes = {key: (state.target, state.base)
              for key, state in net._links.items()}
    assert all(target is not None for target, _ in routes.values())
    c = Recorder(sim, "c")                # a newcomer, placed in open loop
    c.attach_network(net)
    net.place("c", "Z")
    c.send("a", "z-x")
    assert {key: (state.target, state.base)
            for key, state in net._links.items()
            if "c" not in key} == routes  # nobody else re-resolves
    net.place("c", "Y")                   # ...but the newcomer's own link does
    assert net._links[("c", "a")].target is None
    c.send("a", "y-x again")
    assert net._links[("c", "a")].base == 30.0
    sim.run()
    assert a.received == [(0.5, "a", "x-x"), (30.0, "b", "y-x"),
                          (70.0, "c", "z-x"), (70.0, "c", "y-x again")]


def test_unknown_destination_caches_nothing_and_is_reachable_once_registered(sim):
    net = make_net(sim)
    a = Recorder(sim, "a")
    a.attach_network(net)
    with pytest.raises(KeyError):
        a.send("late", "lost")
    assert net._links == {}
    assert net.messages_sent == 0
    late = Recorder(sim, "late")
    late.attach_network(net)
    a.send("late", "found")
    sim.run()
    assert late.received == [(1.0, "a", "found")]


def test_link_state_made_by_an_injection_before_registration_still_resolves(sim):
    net = make_net(sim)
    a = Recorder(sim, "a")
    a.attach_network(net)
    net.inject_extra_delay("a", "late", 4.0)    # link state, no route yet
    with pytest.raises(KeyError):
        a.send("late", "lost")
    late = Recorder(sim, "late")
    late.attach_network(net)
    a.send("late", "found")
    sim.run()
    assert late.received == [(5.0, "a", "found")]


def test_extra_delay_set_after_the_first_send_applies_to_the_next(sim):
    net = make_net(sim)
    a, b = Recorder(sim, "a"), Recorder(sim, "b")
    a.attach_network(net)
    b.attach_network(net)
    a.send("b", "plain")
    net.inject_extra_delay("a", "b", 9.0)
    a.send("b", "slow")
    sim.run()
    net.inject_extra_delay("a", "b", 0.0)
    a.send("b", "plain again")
    sim.run()
    assert b.received == [(1.0, "a", "plain"), (10.0, "a", "slow"),
                          (11.0, "a", "plain again")]


def test_site_delay_set_after_the_first_send_applies_to_the_next(sim):
    net, a, b = sited_net(sim)
    net.place("a", "X")
    net.place("b", "Y")
    a.send("b", "plain")
    net.inject_site_delay("X", "Y", 25.0)
    a.send("b", "slow")
    b.send("a", "slow back")
    sim.run()
    assert b.received == [(30.0, "a", "plain"), (55.0, "a", "slow")]
    assert a.received == [(55.0, "b", "slow back")]


def test_outages_hold_and_resend_through_the_cached_route(sim):
    net, a, b = sited_net(sim)
    net.place("a", "X")
    net.place("b", "Y")
    a.send("b", 0)                      # resolves the route
    net.partition("a", "b")
    a.send("b", 1)
    a.send("b", 2)
    sim.run()
    assert [m for _, _, m in b.received] == [0]
    net.heal("a", "b")                  # at t=30
    net.isolate("b")
    a.send("b", 3)
    sim.run()
    net.rejoin("b")                     # at t=60
    a.send("b", 4)
    sim.run()
    assert b.received == [(30.0, "a", 0), (60.0, "a", 1), (60.0, "a", 2),
                          (90.0, "a", 3), (90.0, "a", 4)]
    assert net.messages_sent == 5       # a held message counts once


def test_liveness_is_checked_at_delivery_time(sim):
    net = make_net(sim)
    a, b = Recorder(sim, "a"), Recorder(sim, "b")
    a.attach_network(net)
    b.attach_network(net)
    a.send("b", "warm-up")              # the route outlives the crashes
    sim.run()
    a.send("b", "crash after send")
    b.crash()
    sim.run()
    b.restart()
    b.crash()
    a.send("b", "recover before arrival")
    sim.schedule(0.5, b.restart)
    sim.run()
    assert [m for _, _, m in b.received] == ["warm-up",
                                             "recover before arrival"]
