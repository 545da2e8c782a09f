"""Deterministic discrete-event simulation kernel.

The kernel is a classic event-heap scheduler.  All distributed components in
this repository (datacenters, Saturn serializers, clients, baselines) are
actors scheduled on a single :class:`Simulator`.  Simulated time is a float
in **milliseconds**, matching the units of the paper's latency tables.

Determinism: events scheduled for the same instant are executed in the order
they were scheduled (a monotonically increasing sequence number breaks ties),
so a given seed always produces the identical execution.

Hot-path layout: the heap stores plain ``(time, seq, target, args)`` tuples
so that sift comparisons stay inside the C tuple-compare path instead of
calling a Python ``__lt__`` (``seq`` is unique: nothing after it is ever
compared).  A timer is ``(time, seq, event, None)``: the :class:`Event`
returned by the ``schedule`` methods is a ``__slots__`` handle used for
cancellation, which sets its ``callback`` to ``None`` and bumps a counter on
the simulator, so :meth:`Simulator.run` can skip dead entries with a single
attribute load and :meth:`Simulator.pending` stays O(1).  A
:meth:`Simulator.call_at` entry is ``(time, seq, fn, args)``: nothing can
cancel it, so there is no handle and no closure, and the run loop calls
``fn(*args)`` straight from the tuple — one message delivery is one such
entry.  A schedule controller still gets an :class:`Event` for it (same
``time`` and ``seq``), made by the kernel when it calls the hook.

The kernel has one hook, :attr:`Simulator.controller`; passive
instrumentation (the FIFO audit, the routing oracles) watches
messages through :attr:`repro.sim.network.Network.observers` instead.
"""

from __future__ import annotations

import heapq
from functools import partial
from typing import Any, Callable, Optional

__all__ = ["Event", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for scheduling errors (e.g. events in the past)."""


class Event:
    """A scheduled callback handle.

    ``callback is None`` doubles as the dead flag: it is cleared both when
    the event is cancelled and just before the kernel invokes it, so a
    cancel that races with execution (from inside the running callback or
    any later event) is a harmless no-op.
    """

    __slots__ = ("time", "seq", "callback", "_sim")

    def __init__(self, time: float, seq: int, callback: Optional[Callable[[], None]],
                 sim: Optional["Simulator"] = None) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self._sim = sim

    @property
    def cancelled(self) -> bool:
        """True once the event can no longer fire (cancelled or already run)."""
        return self.callback is None

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it when popped."""
        if self.callback is not None:
            self.callback = None
            sim = self._sim
            if sim is not None:
                sim._cancelled_in_heap += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "dead" if self.callback is None else "pending"
        return f"<Event t={self.time} seq={self.seq} {state}>"


class Simulator:
    """Single-threaded deterministic discrete-event scheduler."""

    def __init__(self) -> None:
        #: ``(time, seq, Event, None)`` / ``(time, seq, fn, args)`` entries
        self._heap: list = []
        self._seq = 0
        #: current simulated time in milliseconds (a plain attribute: it is
        #: the most-read value of a run)
        self.now = 0.0
        #: events executed so far (for diagnostics)
        self.events_executed = 0
        #: cancelled events still sitting in the heap (skipped on pop).
        self._cancelled_in_heap = 0
        #: optional schedule controller (see repro.analysis.mc.controller).
        #: When set, it must provide ``on_schedule(event)`` and
        #: ``choose(time, events) -> int``: whenever two or more live
        #: events are ready at the same instant, ``choose`` picks which one
        #: runs next (index into *events*, which is in (time, seq) order).
        #: With no controller — or a controller that always returns 0 — the
        #: execution is identical to the plain FIFO tie-break.
        self.controller: Optional[Any] = None

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule *callback* to run ``delay`` ms from now.

        Returns the :class:`Event`, which can be cancelled.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay})")
        time = self.now + delay
        seq = self._seq = self._seq + 1
        event = Event(time, seq, callback, self)
        heapq.heappush(self._heap, (time, seq, event, None))
        controller = self.controller
        if controller is not None:
            controller.on_schedule(event)
        return event

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule *callback* at absolute simulated time *time*."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time} < now {self.now}"
            )
        seq = self._seq = self._seq + 1
        event = Event(time, seq, callback, self)
        heapq.heappush(self._heap, (time, seq, event, None))
        controller = self.controller
        if controller is not None:
            controller.on_schedule(event)
        return event

    def call_at(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """:meth:`schedule_at` for ``fn(*args)`` without a handle: same
        ``(time, seq)`` order, not cancellable, and the heap entry is the
        only allocation (the network's per-message path)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time} < now {self.now}"
            )
        seq = self._seq = self._seq + 1
        heapq.heappush(self._heap, (time, seq, fn, args))
        controller = self.controller
        if controller is not None:
            controller.on_schedule(Event(time, seq, fn))

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the heap drains or *until* is reached.
        Returns the final simulated time."""
        # ``now`` stays a float even when *until* is an int
        until = None if until is None else float(until)
        if self.controller is not None:
            return self._run_controlled(until)
        heap = self._heap
        heappop = heapq.heappop
        stop = float("inf") if until is None else until
        executed = 0
        while heap:
            entry = heappop(heap)
            time, _, target, args = entry
            if time > stop:
                heapq.heappush(heap, entry)  # noqa: SAT007 - put back as popped
                self.now = until
                break
            if args is not None:
                self.now = time
                target(*args)
                executed += 1
                continue
            callback = target.callback
            if callback is None:
                self._cancelled_in_heap -= 1
                continue
            target.callback = None
            self.now = time
            callback()
            executed += 1
        else:
            if until is not None and self.now < until:
                self.now = until
        self.events_executed += executed
        return self.now

    def _run_controlled(self, until: Optional[float]) -> float:
        """Run loop with a schedule controller attached.

        Whenever two or more live events are ready at the minimal instant,
        the whole tie group is popped and the controller picks which event
        runs; the rest are pushed back with their original ``(time, seq)``
        entries, so the next iteration re-asks the controller (including
        any event the executed callback scheduled at the same instant).
        A controller that always answers 0 reproduces the FIFO order of
        the uncontrolled loop exactly.
        """
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        controller = self.controller
        executed = 0
        while heap:
            time = heap[0][0]
            if until is not None and time > until:
                self.now = until
                break
            # pop the whole tie group at `time` (exact float equality is
            # deliberate: it is the kernel's own notion of "same instant")
            candidates = []
            while heap and heap[0][0] == time:  # noqa: SAT004
                entry = heappop(heap)
                if entry[3] is not None:
                    # a handle-free call: give it a handle, once, so the
                    # controller can choose (and re-choose) it like a timer
                    _, seq, fn, args = entry
                    entry = (time, seq,
                             Event(time, seq, partial(fn, *args), self), None)
                event = entry[2]
                if event.callback is None:
                    self._cancelled_in_heap -= 1
                    continue
                candidates.append(entry)
            if not candidates:
                continue
            if len(candidates) == 1:
                chosen = candidates[0]
            else:
                chosen = candidates[controller.choose(
                    time, [c[2] for c in candidates])]
                for entry in candidates:
                    if entry is not chosen:
                        # `entry` is an already-formed (time, seq, event, None)
                        heappush(heap, entry)  # noqa: SAT007
            event = chosen[2]
            callback = event.callback
            event.callback = None
            self.now = time
            callback()
            executed += 1
        else:
            if until is not None and self.now < until:
                self.now = until
        self.events_executed += executed
        return self.now

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return len(self._heap) - self._cancelled_in_heap
