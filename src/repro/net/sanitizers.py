"""Opt-in runtime sanitizers for the realtime transport path.

The dynamic complement to the static CONC rules of :mod:`repro.analysis`:
where the auditor proves properties of the *source*, the sanitizers
watch one *run* and record every violation of the three invariants the
transport's correctness argument leans on:

* **stalls** — a kernel callback (or the loop itself, probed by a
  heartbeat task) held the event loop longer than ``stall_ms``; every
  peer connection and timer on the node froze for that long (the
  runtime shadow of CONC001).
* **reentrancy** — a message was delivered while a ``send`` or another
  delivery was still on the stack, violating PR 7's never-reentrant
  delivery discipline (the sim Network schedules, never calls through).
* **task leaks** — asyncio tasks still alive after the transport's stop
  path finished (the runtime shadow of CONC006).

Enable with ``saturn-repro net run --sanitize``; each node then writes
``sanitizers.json`` next to its log and the driver folds the verdicts
into ``outcome.json``.  Recording is bounded (:data:`_MAX_RECORDS` per
category) so a pathological run cannot eat the node's memory, and
violations are *recorded, not raised* — the sanitizer must never change
the behaviour it observes.
"""

from __future__ import annotations

import asyncio
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.net.kernel import RealtimeKernel

__all__ = ["NetSanitizer"]

#: per-category cap on recorded violations
_MAX_RECORDS = 200
#: heartbeat period of the loop-lag probe task (seconds)
_PROBE_PERIOD_S = 0.05


def _describe(callback: Callable[..., None]) -> str:
    return getattr(callback, "__qualname__", None) or repr(callback)


class NetSanitizer:
    """Per-node violation recorder; wire into kernel and transport."""

    def __init__(self, stall_ms: float = 250.0) -> None:
        self.stall_ms = float(stall_ms)
        self.stalls: List[Dict[str, Any]] = []
        self.reentrancy: List[Dict[str, Any]] = []
        self.task_leaks: List[str] = []
        self.callbacks_timed = 0
        self.deliveries_checked = 0
        self._send_depth = 0
        self._deliver_depth = 0
        self._probe_task: Optional[asyncio.Task] = None

    # -- recording ---------------------------------------------------------

    def _record(self, bucket: List[Dict[str, Any]],
                entry: Dict[str, Any]) -> None:
        if len(bucket) < _MAX_RECORDS:
            bucket.append(entry)

    # -- stall watchdog (kernel hook) --------------------------------------

    def run_callback(self, callback: Callable[..., None],
                     *args: Any) -> None:
        """Run a kernel timer callback or ready-queue entry, timing its
        hold on the loop."""
        self.callbacks_timed += 1
        before = time.monotonic()  # noqa: SAT001 - sanitizer: observes the realtime path, below the determinism boundary
        try:
            callback(*args)
        finally:
            held_ms = (time.monotonic() - before) * 1000.0  # noqa: SAT001 - sanitizer: observes the realtime path, below the determinism boundary
            if held_ms > self.stall_ms:
                self._record(self.stalls, {
                    "kind": "callback", "held_ms": round(held_ms, 3),
                    "callback": _describe(callback)})

    async def _probe(self) -> None:
        """Detect stalls in code the kernel hook cannot see (awaits in
        node/transport coroutines) by measuring heartbeat lag."""
        while True:
            before = time.monotonic()  # noqa: SAT001 - sanitizer: observes the realtime path, below the determinism boundary
            await asyncio.sleep(_PROBE_PERIOD_S)
            lag_ms = ((time.monotonic() - before)  # noqa: SAT001 - sanitizer: observes the realtime path, below the determinism boundary
                      - _PROBE_PERIOD_S) * 1000.0
            if lag_ms > self.stall_ms:
                self._record(self.stalls, {
                    "kind": "loop-lag", "held_ms": round(lag_ms, 3),
                    "callback": None})

    # -- reentrancy check (transport hook) ---------------------------------

    def enter_send(self) -> None:
        self._send_depth += 1

    def exit_send(self) -> None:
        self._send_depth -= 1

    def deliver(self, process: Any, src: str, message: Any) -> None:
        """Deliver through the sanitizer, asserting the never-reentrant
        invariant: no send or delivery may be on the stack."""
        self.deliveries_checked += 1
        if self._send_depth > 0 or self._deliver_depth > 0:
            self._record(self.reentrancy, {
                "process": getattr(process, "name", repr(process)),
                "src": src,
                "send_depth": self._send_depth,
                "deliver_depth": self._deliver_depth,
                "message": type(message).__name__})
        self._deliver_depth += 1
        try:
            process.deliver(src, message)
        finally:
            self._deliver_depth -= 1

    # -- lifecycle ---------------------------------------------------------

    def start(self, kernel: RealtimeKernel) -> None:
        self._probe_task = kernel.create_task(
            self._probe(), name="sanitizer-probe")

    async def stop(self) -> None:
        # swap before the await so concurrent stops are idempotent
        task, self._probe_task = self._probe_task, None
        if task is None:
            return
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            if not task.cancelled():
                raise  # cancelled *us*, not the probe

    def check_task_leaks(self) -> None:
        """Record tasks still alive; call after the transport's stop path."""
        current = asyncio.current_task()
        leaked = sorted(
            task.get_name() for task in asyncio.all_tasks()
            if task is not current and not task.done())
        for name in leaked[:_MAX_RECORDS]:
            self.task_leaks.append(name)

    # -- report ------------------------------------------------------------

    @property
    def ok(self) -> bool:
        return not (self.stalls or self.reentrancy or self.task_leaks)

    def report(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "stall_ms": self.stall_ms,
            "callbacks_timed": self.callbacks_timed,
            "deliveries_checked": self.deliveries_checked,
            "stalls": list(self.stalls),
            "reentrancy": list(self.reentrancy),
            "task_leaks": list(self.task_leaks),
        }

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.report(), indent=2, sort_keys=True)
                        + "\n", encoding="utf-8")
