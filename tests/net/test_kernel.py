"""RealtimeKernel: the sim kernel's actor-facing surface on wall time."""

import asyncio

import pytest

from repro.net.kernel import RealtimeKernel


def test_now_is_monotonic_and_ms_scaled():
    async def main():
        kernel = RealtimeKernel(asyncio.get_running_loop())
        first = kernel.now
        await asyncio.sleep(0.02)
        second = kernel.now
        assert second > first
        # 20 ms of real sleep advances kernel time by roughly 20 ms units
        assert 5.0 < second - first < 5000.0
    asyncio.run(main())


def test_schedule_fires_in_delay_order():
    order = []

    async def main():
        kernel = RealtimeKernel(asyncio.get_running_loop())
        done = asyncio.Event()
        kernel.schedule(30.0, lambda: (order.append("late"), done.set()))
        kernel.schedule(5.0, lambda: order.append("early"))
        kernel.schedule(0.0, lambda: order.append("immediate"))
        await asyncio.wait_for(done.wait(), timeout=5.0)
    asyncio.run(main())
    assert order == ["immediate", "early", "late"]


def test_negative_delay_raises_like_the_sim_kernel():
    async def main():
        kernel = RealtimeKernel(asyncio.get_running_loop())
        with pytest.raises(ValueError):
            kernel.schedule(-1.0, lambda: None)
    asyncio.run(main())


def test_schedule_at_clamps_past_deadlines():
    fired = []

    async def main():
        kernel = RealtimeKernel(asyncio.get_running_loop())
        done = asyncio.Event()
        kernel.schedule_at(kernel.now - 1000.0,
                           lambda: (fired.append(True), done.set()))
        await asyncio.wait_for(done.wait(), timeout=5.0)
    asyncio.run(main())
    assert fired == [True]


def test_cancelled_timer_never_fires():
    fired = []

    async def main():
        kernel = RealtimeKernel(asyncio.get_running_loop())
        timer = kernel.schedule(5.0, lambda: fired.append(True))
        timer.cancel()
        assert timer.cancelled
        await asyncio.sleep(0.03)
    asyncio.run(main())
    assert fired == []


def test_counters_mirror_the_sim_surface():
    async def main():
        kernel = RealtimeKernel(asyncio.get_running_loop())
        done = asyncio.Event()
        kernel.schedule(0.0, done.set)
        kernel.schedule(0.0, lambda: None)
        await asyncio.wait_for(done.wait(), timeout=5.0)
        assert kernel.events_executed >= 1
    asyncio.run(main())


def test_sub_millisecond_delays_are_not_rounded_up_to_the_loop_tick():
    """An idle epoll loop cannot sleep under a millisecond (asyncio rounds
    the select timeout up), so ``call_later(0.0002)`` comes back after a
    whole one; the kernel polls such delays instead."""
    lags = []

    async def main():
        loop = asyncio.get_running_loop()
        kernel = RealtimeKernel(loop)
        for _ in range(20):
            done = asyncio.Event()
            due = loop.time() + 0.0002
            kernel.schedule(
                0.2, lambda: (lags.append(loop.time() - due), done.set()))
            await asyncio.wait_for(done.wait(), timeout=5.0)
    asyncio.run(main())
    assert all(lag >= 0.0 for lag in lags)           # never early
    assert sorted(lags)[len(lags) // 2] < 0.0005     # and not a tick late


def test_polled_timers_fire_in_deadline_then_call_order_and_cancel(
        monkeypatch):
    order = []

    async def main():
        loop = asyncio.get_running_loop()
        kernel = RealtimeKernel(loop)
        done = asyncio.Event()
        # every deadline from one clock reading: a host stall between two
        # schedule() calls must not reorder them
        frozen = loop.time()
        monkeypatch.setattr(loop, "time", lambda: frozen)
        kernel.schedule(0.5, lambda: (order.append("late"), done.set()))
        doomed = kernel.schedule(0.2, lambda: order.append("cancelled"))
        kernel.schedule(0.1, lambda: order.append("early"))
        for index in range(3):
            kernel.schedule(0.0, lambda index=index: order.append(index))
        doomed.cancel()
        monkeypatch.undo()
        assert doomed.cancelled
        await asyncio.wait_for(done.wait(), timeout=5.0)
        assert kernel.events_executed == 5
    asyncio.run(main())
    assert order == [0, 1, 2, "early", "late"]


# -- the ready queue -----------------------------------------------------------

def test_call_soon_runs_in_call_order_under_a_frozen_clock(monkeypatch):
    """The tie the loop's timer heap does not order: a thousand deliveries
    armed in one ``loop.time()`` tick."""
    order = []

    async def main():
        loop = asyncio.get_running_loop()
        kernel = RealtimeKernel(loop)
        frozen = loop.time()
        monkeypatch.setattr(loop, "time", lambda: frozen)
        for index in range(1000):
            kernel.call_soon(order.append, index)
        assert order == []              # never inside the caller's stack
        monkeypatch.undo()
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        assert kernel.events_executed == 1000   # entries, not drains
    asyncio.run(main())
    assert order == list(range(1000))


def test_entries_queued_during_a_drain_wait_for_the_next_loop_turn():
    """A busy actor cannot starve sockets or timers: what a drain queues
    runs in a later drain, and the loop's own work gets a turn between."""
    order = []

    async def main():
        loop = asyncio.get_running_loop()
        kernel = RealtimeKernel(loop)
        done = asyncio.Event()

        def first():
            order.append("first")
            kernel.call_soon(lambda: (order.append("nested"), done.set()))
            kernel.schedule(0.0, lambda: order.append("polled timer"))
            loop.call_soon(order.append, "loop callback")

        kernel.call_soon(first)
        kernel.call_soon(order.append, "second")
        loop.call_later(0, order.append, "loop timer")   # due now
        await asyncio.wait_for(done.wait(), timeout=5.0)
    asyncio.run(main())
    assert order == ["first", "second", "polled timer", "loop timer",
                     "loop callback", "nested"]


def test_a_raising_entry_reaches_the_handler_once_and_the_rest_still_run():
    order, reported = [], []

    async def main():
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(
            lambda loop, context: reported.append(context["exception"]))
        kernel = RealtimeKernel(loop)
        done = asyncio.Event()

        def boom():
            raise RuntimeError("actor bug")

        kernel.call_soon(order.append, 1)
        kernel.call_soon(boom)
        kernel.call_soon(order.append, 2)
        kernel.call_soon(lambda: (order.append(3), done.set()))
        await asyncio.wait_for(done.wait(), timeout=5.0)
        assert kernel.events_executed == 4
    asyncio.run(main())
    assert order == [1, 2, 3]
    assert [str(exc) for exc in reported] == ["actor bug"]


def test_every_entry_and_timer_goes_through_the_sanitizer():
    from repro.net.sanitizers import NetSanitizer

    async def main():
        kernel = RealtimeKernel(asyncio.get_running_loop())
        kernel.sanitizer = san = NetSanitizer(stall_ms=500.0)
        done = asyncio.Event()
        got = []
        for index in range(5):
            kernel.call_soon(got.append, index)
        kernel.schedule(0.0, lambda: got.append("polled"))
        kernel.schedule(2.0, lambda: (got.append("slept"), done.set()))
        await asyncio.wait_for(done.wait(), timeout=5.0)
        assert got == [0, 1, 2, 3, 4, "polled", "slept"]
        assert san.callbacks_timed == kernel.events_executed == 7
        assert san.ok
    asyncio.run(main())
