"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_time_starts_at_zero(sim):
    assert sim.now == 0.0


def test_schedule_and_run_advances_time(sim):
    fired = []
    sim.schedule(5.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [5.0]
    assert sim.now == 5.0


def test_events_run_in_chronological_order(sim):
    order = []
    sim.schedule(3.0, lambda: order.append("c"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(2.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_run_fifo(sim):
    order = []
    for i in range(10):
        sim.schedule(1.0, lambda i=i: order.append(i))
    sim.run()
    assert order == list(range(10))


def test_schedule_at_absolute_time(sim):
    fired = []
    sim.schedule_at(4.5, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [4.5]


def test_schedule_negative_delay_raises(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_past_raises(sim):
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_cancelled_event_does_not_fire(sim):
    fired = []
    event = sim.schedule(1.0, lambda: fired.append(1))
    event.cancel()
    sim.run()
    assert fired == []


def test_run_until_stops_before_later_events(sim):
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(10.0, lambda: fired.append(2))
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0
    sim.run()
    assert fired == [1, 2]


def test_run_until_advances_time_even_without_events(sim):
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_events_scheduled_during_run_execute(sim):
    fired = []

    def first():
        fired.append("first")
        sim.schedule(1.0, lambda: fired.append("second"))

    sim.schedule(1.0, first)
    sim.run()
    assert fired == ["first", "second"]
    assert sim.now == 2.0


def test_events_executed_counter(sim):
    for i in range(3):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_executed == 3


def test_pending_excludes_cancelled(sim):
    keep = sim.schedule(1.0, lambda: None)
    drop = sim.schedule(2.0, lambda: None)
    drop.cancel()
    assert sim.pending() == 1
    keep.cancel()
    assert sim.pending() == 0


def test_zero_delay_runs_at_current_time(sim):
    sim.schedule(5.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
    times = []
    sim.run()
    assert times == [5.0]


# -- Event.cancel semantics (heap entries outlive cancelled handles) ---------


def test_cancelled_event_skipped_without_counting_as_executed(sim):
    fired = []
    sim.schedule(1.0, lambda: fired.append("keep"))
    dead = sim.schedule(2.0, lambda: fired.append("dead"))
    sim.schedule(3.0, lambda: fired.append("after"))
    dead.cancel()
    sim.run()
    assert fired == ["keep", "after"]
    assert sim.events_executed == 2
    assert sim.pending() == 0


def test_cancel_then_reschedule_fires_once_at_new_time(sim):
    fired = []
    first = sim.schedule(1.0, lambda: fired.append(sim.now))
    first.cancel()
    sim.schedule(4.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [4.0]
    assert sim.now == 4.0


def test_cancel_inside_callback_prevents_same_time_event(sim):
    fired = []

    def canceller():
        victim.cancel()

    # FIFO tie-break: the canceller was scheduled first, so it runs first
    # and the victim — due at the very same instant — must not fire
    sim.schedule(1.0, canceller)
    victim = sim.schedule(1.0, lambda: fired.append("victim"))
    sim.run()
    assert fired == []
    assert sim.events_executed == 1


def test_cancel_inside_callback_prevents_future_event(sim):
    fired = []
    victim = sim.schedule(5.0, lambda: fired.append("victim"))
    sim.schedule(1.0, victim.cancel)
    sim.run()
    assert fired == []
    assert sim.pending() == 0


def test_double_cancel_is_idempotent(sim):
    event = sim.schedule(1.0, lambda: None)
    event.cancel()
    event.cancel()
    assert sim.pending() == 0
    sim.run()
    assert sim.events_executed == 0


def test_cancel_after_firing_is_a_noop(sim):
    fired = []
    event = sim.schedule(1.0, lambda: fired.append(1))
    sim.run()
    assert fired == [1]
    event.cancel()  # must not corrupt the cancelled-entry accounting
    assert sim.pending() == 0
    follow = sim.schedule(1.0, lambda: fired.append(2))
    assert sim.pending() == 1
    sim.run()
    assert fired == [1, 2]
    assert follow.cancelled  # fired events read as no-longer-cancellable


def test_self_cancel_during_own_callback_is_a_noop(sim):
    fired = []
    holder = []

    def callback():
        fired.append(sim.now)
        holder[0].cancel()

    holder.append(sim.schedule(2.0, callback))
    sim.run()
    assert fired == [2.0]
    assert sim.pending() == 0
    assert sim.events_executed == 1


def test_cancelled_events_do_not_advance_the_clock(sim):
    event = sim.schedule(10.0, lambda: None)
    event.cancel()
    sim.run(until=3.0)
    assert sim.now == 3.0
    sim.run()
    # the dead heap entry is discarded without executing at t=10
    assert sim.now == 3.0
    assert sim.pending() == 0
    assert sim.events_executed == 0


def test_pending_is_consistent_under_interleaved_cancels(sim):
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
    for event in events[::2]:
        event.cancel()
    assert sim.pending() == 5
    for event in events:
        event.cancel()  # half are double-cancels
    assert sim.pending() == 0
    sim.run()
    assert sim.events_executed == 0


# -- handle-free events (Simulator.call_at) ---------------------------------

def mixed_schedule(sim, log):
    """Handle and handle-free events interleaved at t=1 and t=2, plus one
    cancelled handle; returns the expected execution order."""
    sim.call_at(2.0, log.append, "free-2a")
    sim.schedule(1.0, lambda: log.append("handle-1a"))
    sim.call_at(1.0, log.append, "free-1b")
    sim.schedule_at(1.0, lambda: log.append("handle-1c"))
    sim.schedule(1.0, lambda: log.append("cancelled")).cancel()
    sim.call_at(1.0, log.append, "free-1d")
    sim.schedule_at(2.0, lambda: log.append("handle-2b"))
    return ["handle-1a", "free-1b", "handle-1c", "free-1d",
            "free-2a", "handle-2b"]


def test_call_at_passes_its_arguments_and_returns_no_handle(sim):
    got = []
    assert sim.call_at(3.0, lambda *args: got.append((sim.now, args)),
                       "a", 2) is None
    sim.call_at(4.0, got.append, "no-extra-args")
    sim.run()
    assert got == [(3.0, ("a", 2)), "no-extra-args"]


def test_call_at_in_the_past_raises(sim):
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(4.0, print)
    assert sim.pending() == 0


def test_handle_free_and_handle_events_share_one_time_seq_order(sim):
    log = []
    expected = mixed_schedule(sim, log)
    sim.run()
    assert log == expected


def test_handle_free_events_are_counted_like_any_other(sim):
    log = []
    expected = mixed_schedule(sim, log)
    assert sim.pending() == 6          # the cancelled handle is not pending
    sim.run(until=1.0)
    assert log == expected[:4] and sim.now == 1.0
    assert sim.pending() == 2
    assert sim.events_executed == 4
    # the rest through the controlled loop, which counts the same way
    sim.controller = RecordingController(lambda k: 0)
    sim.run(until=1.5)
    assert log == expected[:4] and sim.now == 1.5
    assert sim.events_executed == 4
    sim.run()
    assert log == expected
    assert sim.events_executed == 6 and sim.pending() == 0


def test_call_at_scheduled_from_a_callback_at_the_same_instant_runs(sim):
    log = []
    sim.call_at(1.0, lambda: sim.call_at(1.0, log.append, "nested"))
    sim.call_at(1.0, log.append, "sibling")
    sim.run()
    assert log == ["sibling", "nested"]


class RecordingController:
    """Answers every tie with `pick(k)` and keeps what it was offered."""

    def __init__(self, pick):
        self.pick = pick
        self.scheduled = []
        self.offers = []

    def on_schedule(self, event):
        self.scheduled.append(event.seq)

    def choose(self, time, events):
        self.offers.append((time, [event.seq for event in events]))
        return self.pick(len(events))


def test_controller_answering_zero_reproduces_the_fifo_execution():
    plain, controlled = Simulator(), Simulator()
    plain_log, controlled_log = [], []
    controller = RecordingController(lambda k: 0)
    controlled.controller = controller
    mixed_schedule(plain, plain_log)
    mixed_schedule(controlled, controlled_log)
    plain.run()
    controlled.run()
    assert controlled_log == plain_log
    assert controlled.events_executed == plain.events_executed == 6
    assert controller.scheduled == [1, 2, 3, 4, 5, 6, 7]
    # handle-free deliveries (seqs 3, 6 and 1) are among the candidates of
    # every tie they take part in, so mc can still reorder them
    assert controller.offers == [
        (1.0, [2, 3, 4, 6]), (1.0, [3, 4, 6]), (1.0, [4, 6]), (2.0, [1, 7])]


def test_controller_can_run_a_handle_free_event_first():
    sim = Simulator()
    sim.controller = RecordingController(lambda k: k - 1)   # always the last
    log = []
    mixed_schedule(sim, log)
    sim.run()
    assert log == ["free-1d", "handle-1c", "free-1b", "handle-1a",
                   "handle-2b", "free-2a"]


def test_controller_attached_late_is_offered_earlier_handle_free_events():
    sim = Simulator()
    log = []
    sim.call_at(1.0, log.append, "first")
    sim.call_at(1.0, log.append, "second")
    controller = RecordingController(lambda k: 1)
    sim.controller = controller
    sim.run()
    assert log == ["second", "first"]
    assert controller.offers == [(1.0, [1, 2])]


def test_controller_may_cancel_an_offered_handle_free_event():
    class CancelSecond(RecordingController):
        def choose(self, time, events):
            events[1].cancel()
            return 0

    sim = Simulator()
    log = []
    sim.call_at(1.0, log.append, "first")
    sim.call_at(1.0, log.append, "second")
    sim.controller = CancelSecond(None)
    sim.run()
    assert log == ["first"]
    assert sim.events_executed == 1 and sim.pending() == 0


def test_an_int_until_leaves_now_a_float(sim):
    """With or without a schedule controller, and whether the heap drains
    or an event lies past the bound."""
    sim.run(until=3)
    assert type(sim.now) is float
    sim.schedule(10.0, lambda: None)
    sim.run(until=5)
    assert type(sim.now) is float and sim.now == 5.0
    controlled = Simulator()
    controlled.controller = RecordingController(lambda k: 0)
    controlled.schedule(10.0, lambda: None)
    controlled.run(until=5)
    assert type(controlled.now) is float
