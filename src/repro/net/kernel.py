"""Realtime kernel: the :class:`~repro.net.transport.Kernel` protocol on
asyncio wall time.

Actors built for the simulator only ever touch the kernel through
``now`` / ``schedule`` / ``schedule_at`` (plus the sanctioned seam
modules ``sim.clock`` and ``sim.cpu``, which themselves reduce to those
three), so this class is all it takes to run a
:class:`~repro.datacenter.datacenter.SaturnDatacenter` or a
:class:`~repro.core.serializer.Serializer` unmodified on real time.

``now`` is *wall-anchored* milliseconds (Unix epoch base advanced by the
monotonic clock): monotonic within a node, comparable across nodes up to
host clock skew — which is exactly the physical-clock model the paper
assumes (§7), so :class:`~repro.sim.clock.PhysicalClock` timestamps
taken on different nodes order sensibly.  ``schedule_at`` with a time
already in the past fires as soon as possible (the sim kernel would
raise; realtime cannot, because the deadline may have passed while a
frame was in flight).
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Coroutine, Optional

__all__ = ["RealtimeKernel", "RealtimeTimer"]


class RealtimeTimer:
    """Cancellable handle mirroring :class:`repro.sim.engine.Event`."""

    __slots__ = ("_handle", "_cancelled")

    def __init__(self, handle: asyncio.TimerHandle) -> None:
        self._handle = handle
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        self._cancelled = True
        self._handle.cancel()


class RealtimeKernel:
    """Wall-clock scheduler with the simulator's actor-facing surface."""

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None
                 ) -> None:
        self._loop = (loop if loop is not None
                      else asyncio.get_running_loop())
        # wall-anchored monotonic time: epoch base read once, advanced by
        # the monotonic clock so host NTP steps cannot run time backwards
        self._epoch_ms = time.time() * 1000.0  # noqa: SAT001 - realtime kernel: below the determinism boundary
        self._mono_base = time.monotonic()  # noqa: SAT001 - realtime kernel: below the determinism boundary
        self.events_executed = 0
        #: optional repro.net.sanitizers.NetSanitizer; when set, every
        #: scheduled callback runs through it (stall watchdog)
        self.sanitizer: Optional[Any] = None
        #: strong refs to spawned tasks (the loop itself keeps only weak
        #: ones); each task removes itself when done so finished tasks do
        #: not accumulate
        self._tasks: set = set()

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        return self._loop

    def create_task(self, coro: Coroutine[Any, Any, Any],
                    name: Optional[str] = None) -> asyncio.Task:
        """Spawn a task on the kernel's loop, retaining a reference so it
        cannot be garbage-collected mid-flight (the CONC002 footgun)."""
        task = self._loop.create_task(coro, name=name)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    @property
    def now(self) -> float:
        """Wall-anchored milliseconds (monotonic within this process)."""
        return self._epoch_ms + (
            time.monotonic() - self._mono_base) * 1000.0  # noqa: SAT001 - realtime kernel: below the determinism boundary

    def schedule(self, delay: float,
                 callback: Callable[[], None]) -> RealtimeTimer:
        """Run *callback* after *delay* ms (>= 0)."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")

        def _fire() -> None:
            self.events_executed += 1
            san = self.sanitizer
            if san is None:
                callback()
            else:
                san.run_callback(callback)

        return RealtimeTimer(self._loop.call_later(delay / 1000.0, _fire))

    def schedule_at(self, when: float,
                    callback: Callable[[], None]) -> RealtimeTimer:
        """Run *callback* at kernel time *when* (ms); past deadlines fire
        as soon as possible."""
        return self.schedule(max(0.0, when - self.now), callback)
