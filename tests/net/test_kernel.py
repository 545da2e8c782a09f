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
