"""Realtime kernel: the :class:`~repro.net.transport.Kernel` protocol on
asyncio wall time.

Actors built for the simulator only ever touch the kernel through
``now`` / ``schedule`` / ``schedule_at`` (plus the sanctioned seam
modules ``sim.clock`` and ``sim.cpu``, which themselves reduce to those
three), so this class is all it takes to run any datacenter of the
protocol table, or a :class:`~repro.core.serializer.Serializer`,
unmodified on real time.

``now`` is *wall-anchored* milliseconds (Unix epoch base advanced by the
monotonic clock): monotonic within a node, comparable across nodes up to
host clock skew — which is exactly the physical-clock model the paper
assumes (§7), so :class:`~repro.sim.clock.PhysicalClock` timestamps
taken on different nodes order sensibly.  ``schedule_at`` with a time
already in the past fires as soon as possible (the sim kernel would
raise; realtime cannot, because the deadline may have passed while a
frame was in flight).

Message deliveries do not go through timers at all: :meth:`call_soon` is
a handle-free FIFO ready queue (the realtime twin of
``Simulator.call_at``), drained once per loop turn.  Delays under a
millisecond — the modelled CPU costs — are polled from that drain,
because the loop cannot sleep that briefly (:data:`_POLLED_BELOW_MS`).
"""

from __future__ import annotations

import asyncio
import heapq
import time
from collections import deque
from typing import Any, Callable, Coroutine, Deque, List, Optional, Tuple

__all__ = ["RealtimeKernel", "RealtimeTimer"]

#: asyncio rounds a selector timeout up to epoll's whole millisecond, so
#: on an idle loop ``call_later(0.0003)`` fires after 1 ms or more — 3x a
#: modelled 0.3 ms write.  Shorter delays are therefore polled, not slept
_POLLED_BELOW_MS = 1.0


class RealtimeTimer:
    """Cancellable handle mirroring :class:`repro.sim.engine.Event`."""

    __slots__ = ("_handle", "_cancelled")

    def __init__(self, handle: Optional[asyncio.TimerHandle] = None) -> None:
        #: the loop's own handle; a polled timer has none
        self._handle = handle
        self._cancelled = False

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        self._cancelled = True
        if self._handle is not None:
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
        #: call_soon entries not yet run, in call order
        self._ready: Deque[Tuple[Callable[..., None], tuple]] = deque()
        #: polled timers: heap of (due in loop seconds, seq, timer,
        #: callback), seq keeping equal deadlines in call order
        self._polled: List[tuple] = []
        self._seq = 0
        #: whether a _drain is on the loop's own ready list
        self._drain_armed = False

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

    def _run(self, fn: Callable[..., None], *args: Any) -> None:
        """Where every kernel callback runs: ready entry or timer."""
        self.events_executed += 1
        san = self.sanitizer
        if san is None:
            fn(*args)
        else:
            san.run_callback(fn, *args)

    def call_soon(self, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` on the next loop turn, after every entry
        queued before it: FIFO by construction (the loop's timer heap
        does not order equal deadlines) and not cancellable, so an entry
        costs no closure, no :class:`RealtimeTimer`, no ``TimerHandle``."""
        self._ready.append((fn, args))
        self._arm_drain()

    def _arm_drain(self) -> None:
        if not self._drain_armed:
            self._drain_armed = True
            self._loop.call_soon(self._drain)

    def _drain(self) -> None:
        """Run the entries queued now, then the polled timers due now.
        What they queue waits for the next loop turn, so sockets and
        slept timers get theirs; so does whatever is behind a callback
        that raises.  While a polled timer is pending the drain re-arms
        itself every turn: the loop polls its sockets but never sleeps."""
        ready, polled = self._ready, self._polled
        try:
            for _ in range(len(ready)):
                fn, args = ready.popleft()
                self._run(fn, *args)
            if polled:
                now = self._loop.time()
                while polled and polled[0][0] <= now:
                    _, _, timer, callback = heapq.heappop(polled)
                    if not timer._cancelled:
                        self._run(callback)
        finally:
            if ready or polled:
                self._loop.call_soon(self._drain)
            else:
                self._drain_armed = False

    def schedule(self, delay: float,
                 callback: Callable[[], None]) -> RealtimeTimer:
        """Run *callback* after *delay* ms (>= 0)."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        if delay >= _POLLED_BELOW_MS:
            return RealtimeTimer(self._loop.call_later(
                delay / 1000.0, self._run, callback))
        timer = RealtimeTimer()
        self._seq += 1
        heapq.heappush(self._polled, (self._loop.time() + delay / 1000.0,
                                      self._seq, timer, callback))
        self._arm_drain()
        return timer

    def schedule_at(self, when: float,
                    callback: Callable[[], None]) -> RealtimeTimer:
        """Run *callback* at kernel time *when* (ms); past deadlines fire
        as soon as possible."""
        return self.schedule(max(0.0, when - self.now), callback)
