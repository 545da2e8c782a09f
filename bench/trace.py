"""Outside-in span tracing for the traced benchmark pass.

Nothing under ``src/`` knows about spans.  :func:`instrument` replaces the
public entry points of each layer (class attributes and two module
functions) with wrappers that open a span on a stack-based
:class:`Recorder`, and returns a callable that puts the originals back.
It must run *before* the cluster is built: hot paths bind methods early
(``dc.every(period, self.flush)``), and a bound method captures whatever
the class attribute was at bind time.

A span has a name, a layer, a start, an end and a cause.  A nested span is
caused by its parent.  A callback handed to a scheduler from inside a span
runs later as a span of the *same layer*, caused by the span that scheduled
it — so the work a frontend defers through ``ServerCPU.submit`` is the
frontend's, and top-level events do not all fall into the kernel.

Self time of a span is its duration minus the part its child spans cover.
Totals (calls, total, self) are aggregated per span name on the fly; full
spans are kept for a bounded sample and written out at the end.
"""

from __future__ import annotations

import asyncio.events
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["MAX_SPANS", "Recorder", "instrument", "layer_self_s"]

#: full spans kept in memory per recorder (totals cover every span)
MAX_SPANS = 200_000

# frame layout (a list, mutated in place): the hot path indexes it
_ID, _NAME, _LAYER, _CAUSE, _CHILD_NS, _START_NS = range(6)


class _Deferred:
    """A scheduled callback that runs as a span of the scheduling layer."""

    __slots__ = ("recorder", "callback", "name", "layer", "cause", "due_ns")

    def __init__(self, recorder: "Recorder", callback: Callable[[], None],
                 name: str, layer: str, cause: Optional[int],
                 due_ns: Optional[int]) -> None:
        self.recorder = recorder
        self.callback = callback
        self.name = name
        self.layer = layer
        self.cause = cause
        self.due_ns = due_ns

    def __call__(self) -> None:
        recorder = self.recorder
        frame = recorder.enter(self.name, self.layer, self.cause)
        if self.due_ns is not None:
            recorder.timer_lags_ns.append(frame[_START_NS] - self.due_ns)
        try:
            self.callback()
        finally:
            recorder.exit(frame)


class Recorder:
    """Stack-based span recorder (single thread)."""

    def __init__(self, keep: int = MAX_SPANS,
                 clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.keep = keep
        self.stack: List[list] = []
        #: span name -> [layer, calls, total_ns, self_ns]
        self.totals: Dict[str, list] = {}
        #: (id, name, layer, start_ns, end_ns, cause) for the first `keep`
        self.spans: List[Tuple[int, str, str, int, int, Optional[int]]] = []
        #: realtime timers only: actual start minus due time
        self.timer_lags_ns: List[int] = []
        self._next_id = 0
        self._callback_names: Dict[str, str] = {}

    # -- recording ---------------------------------------------------------

    def enter(self, name: str, layer: str,
              cause: Optional[int] = None) -> list:
        stack = self.stack
        if cause is None and stack:
            cause = stack[-1][_ID]
        span_id = self._next_id
        self._next_id = span_id + 1
        frame = [span_id, name, layer, cause, 0, self.clock()]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        stack = self.stack
        stack.pop()
        duration = end - frame[_START_NS]
        entry = self.totals.get(frame[_NAME])
        if entry is None:
            entry = self.totals[frame[_NAME]] = [frame[_LAYER], 0, 0, 0]
        entry[1] += 1
        entry[2] += duration
        entry[3] += duration - frame[_CHILD_NS]
        if stack:
            stack[-1][_CHILD_NS] += duration
        if len(self.spans) < self.keep:
            self.spans.append((frame[_ID], frame[_NAME], frame[_LAYER],
                               frame[_START_NS], end, frame[_CAUSE]))

    def reset(self) -> None:
        """Zero the totals (start of a timed section).  The span sample is
        kept: it holds the first ``keep`` spans of the whole pass.

        Spans still open restart now, so only their time inside the timed
        section is counted when they close."""
        self.totals.clear()
        self.timer_lags_ns.clear()
        now = self.clock()
        for frame in self.stack:
            frame[_CHILD_NS] = 0
            frame[_START_NS] = now

    # -- wrappers ----------------------------------------------------------

    def span(self, fn: Callable, name: str, layer: str) -> Callable:
        """*fn* wrapped so that every call is one span."""
        enter, leave = self.enter, self.exit

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = enter(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def defer(self, callback: Callable[[], None], idle_layer: str,
              due_ns: Optional[int] = None) -> _Deferred:
        """*callback* as a future span of the layer scheduling it now
        (``idle_layer`` when nothing is running)."""
        if type(callback) is _Deferred:
            if callback.due_ns is None:
                callback.due_ns = due_ns
            return callback
        stack = self.stack
        if stack:
            top = stack[-1]
            layer, cause = top[_LAYER], top[_ID]
        else:
            layer, cause = idle_layer, None
        name = self._callback_names.get(layer)
        if name is None:
            name = self._callback_names[layer] = layer + ".callback"
        return _Deferred(self, callback, name, layer, cause, due_ns)

    def scheduling_span(self, fn: Callable, name: str, layer: str,
                        realtime: bool = False) -> Callable:
        """Wrap a ``fn(self, when, callback)`` scheduler entry point: the
        call is a span of *layer*, the callback a deferred span of the
        caller's layer.  With *realtime*, ``when`` is a delay in ms on the
        host clock and the callback's lateness is sampled."""
        enter, leave, defer, clock = self.enter, self.exit, self.defer, self.clock

        def wrapper(obj: Any, when: float, callback: Callable[[], None]) -> Any:
            due_ns = clock() + int(when * 1e6) if realtime else None
            callback = defer(callback, layer, due_ns)
            frame = enter(name, layer)
            try:
                return fn(obj, when, callback)
            finally:
                leave(frame)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def factory_span(self, fn: Callable, name: str, layer: str) -> Callable:
        """Wrap a factory so the callable it *returns* runs as spans."""

        def wrapper(*args: Any, **kwargs: Any) -> Callable:
            return self.span(fn(*args, **kwargs), name, layer)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # -- output ------------------------------------------------------------

    def snapshot(self) -> Dict[str, list]:
        """A copy of the totals as they stand (end of a timed section)."""
        return {name: list(entry) for name, entry in self.totals.items()}

    def write_jsonl(self, path: Any) -> None:
        """One line per kept span, times in µs from the first span."""
        origin = self.spans[0][3] if self.spans else 0
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, layer, start, end, cause in self.spans:
                out.write(
                    f'{{"id":{span_id},"name":"{name}","layer":"{layer}",'
                    f'"start_us":{(start - origin) / 1e3:.3f},'
                    f'"end_us":{(end - origin) / 1e3:.3f},"cause":'
                    f'{"null" if cause is None else cause}}}\n')


def layer_self_s(totals: Dict[str, list]) -> Dict[str, float]:
    """Self seconds per layer of a ``Recorder.totals`` table; they sum to
    the time covered by spans."""
    layers: Dict[str, float] = {}
    for layer, _, _, self_ns in totals.values():
        layers[layer] = layers.get(layer, 0.0) + self_ns / 1e9
    return layers


def instrument(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer's entry points; returns the function that restores
    them.  Span names are ``<layer>.<attribute>``."""
    from repro.core.serializer import Serializer
    from repro.datacenter.client import ClientProcess
    from repro.datacenter.datacenter import SaturnDatacenter
    from repro.datacenter.label_sink import LabelSink
    from repro.datacenter.remote_proxy import RemoteProxy
    from repro.harness.runner import MetricsHub
    from repro.net import codec
    from repro.net.kernel import RealtimeKernel
    from repro.net.tcp import TcpTransport
    from repro.obs.trace import LabelTracer
    from repro.sim.cpu import ServerCPU
    from repro.sim.engine import Simulator
    from repro.sim.network import Network
    from repro.verify.checker import ExecutionLog
    from repro.workloads.openloop import OpenLoopSource
    from repro.workloads.streaming import StreamingFacebookWorkload
    from repro.workloads.synthetic import SyntheticWorkload

    patches: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, wrap: Callable[..., Callable],
              *args: Any) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, wrap(original, *args))
        patches.append((owner, attr, original))

    spans = [
        ("sim.engine", Simulator, ("run",)),
        ("sim.network", Network, ("send",)),
        ("sim.cpu", ServerCPU, ("consume",)),
        ("datacenter.client", ClientProcess, ("receive", "start")),
        # `start` arms the periodic timers (sink flush, bulk heartbeat),
        # so wrapping it attributes every later tick to the datacenter
        ("datacenter.frontend", SaturnDatacenter, ("receive", "start")),
        ("datacenter.label_sink", LabelSink, ("add", "flush", "on_credit")),
        ("core.serializer", Serializer, ("receive",)),
        ("datacenter.remote_proxy", RemoteProxy,
         ("on_labels", "on_payload", "on_heartbeat")),
        ("metrics", MetricsHub, ("record_visibility", "record_op")),
        ("verify", ExecutionLog,
         ("record_update", "record_update_deps", "record_visible",
          "record_read", "check", "check_completeness")),
        ("obs", LabelTracer,
         ("on_issue", "on_flush", "on_serializer_arrive",
          "on_serializer_forward", "on_deliver", "on_visible",
          "on_finalized", "annotate")),
        ("net.codec", codec, ("encode_frame", "decode_frame_body")),
        ("net.tcp", TcpTransport, ("send",)),
        # the arrival chain reschedules itself from inside this span
        ("workloads", OpenLoopSource, ("start",)),
    ]
    for layer, owner, attrs in spans:
        for attr in attrs:
            patch(owner, attr, recorder.span, f"{layer}.{attr}", layer)
    for layer, owner, attr, realtime in (
            ("sim.engine", Simulator, "schedule", False),
            ("sim.engine", Simulator, "schedule_at", False),
            ("sim.cpu", ServerCPU, "submit", False),
            ("net.kernel", RealtimeKernel, "schedule", True)):
        patch(owner, attr, recorder.scheduling_span, f"{layer}.{attr}", layer,
              realtime)
    for owner in (SyntheticWorkload, StreamingFacebookWorkload):
        patch(owner, "client_generator", recorder.factory_span,
              "workloads.generator", "workloads")

    # asyncio runs every callback (timer, socket readiness, task step)
    # through Handle._run, so this one wrapper covers the realtime path:
    # kernel timers are `net.kernel`, the rest is TcpTransport's stream and
    # task machinery.  No event loop runs on the sim workloads.
    def handle_span(original: Callable) -> Callable:
        enter, leave = recorder.enter, recorder.exit

        def _run(handle: Any) -> None:
            kernel_timer = getattr(handle._callback, "__module__",
                                   None) == "repro.net.kernel"
            frame = (enter("net.kernel.fire", "net.kernel") if kernel_timer
                     else enter("net.tcp.io", "net.tcp"))
            try:
                original(handle)
            finally:
                leave(frame)

        return _run

    patch(asyncio.events.Handle, "_run", handle_span)

    def restore() -> None:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)

    return restore
