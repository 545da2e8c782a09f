"""Component-keyed metrics registry over simulated time.

Counters and gauges are keyed by ``(component, name)`` and created lazily
on first touch.  Nothing here schedules simulator events or reads a clock:
each observation carries its simulated time.  Instrumented components never
write a registry; they append records to a
:class:`~repro.obs.trace.LabelTracer`, whose fold (the registry's
``before_read`` hook) is the one writer.

Counters optionally bucket their increments into fixed windows of simulated
time (``window`` ms), which is what turns an end-of-run total into a rate
timeline.  Exports are sorted by ``component/name`` so the serialized form
is bit-deterministic.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

__all__ = ["Counter", "Gauge", "MetricsRegistry"]


class Counter:
    """Monotone accumulator, optionally windowed over simulated time."""

    __slots__ = ("value", "window", "_buckets")

    def __init__(self, window: float = 0.0) -> None:
        self.value = 0.0
        self.window = window
        self._buckets: Dict[int, float] = {}

    def inc(self, amount: float = 1.0, at: float = 0.0) -> None:
        self.value += amount
        if self.window > 0:
            bucket = int(at // self.window)
            self._buckets[bucket] = self._buckets.get(bucket, 0.0) + amount

    def series(self) -> List[Tuple[float, float]]:
        """``(window start, amount)`` pairs in time order."""
        return [(bucket * self.window, self._buckets[bucket])
                for bucket in sorted(self._buckets)]

    def to_obj(self) -> dict:
        obj: dict = {"value": self.value}
        if self._buckets:
            obj["series"] = [[t, v] for t, v in self.series()]
        return obj


class Gauge:
    """Last-write-wins sample with its simulated timestamp."""

    __slots__ = ("value", "at", "updates")

    def __init__(self) -> None:
        self.value = 0.0
        self.at = 0.0
        self.updates = 0

    def set(self, value: float, at: float = 0.0) -> None:
        self.value = value
        self.at = at
        self.updates += 1

    def to_obj(self) -> dict:
        return {"value": self.value, "at": self.at, "updates": self.updates}


class MetricsRegistry:
    """Lazily-created metrics keyed by ``(component, name)``."""

    def __init__(self, window: float = 0.0) -> None:
        self.window = window
        self._counters: Dict[Tuple[str, str], Counter] = {}
        self._gauges: Dict[Tuple[str, str], Gauge] = {}
        #: run before a metric is handed out or exported: a producer that
        #: logs first and counts later (LabelTracer) folds its backlog in
        #: here, so a metric is as fresh as its last lookup
        self.before_read: Callable[[], None] = lambda: None

    def counter(self, component: str, name: str) -> Counter:
        self.before_read()
        key = (component, name)
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter(window=self.window)
        return metric

    def gauge(self, component: str, name: str) -> Gauge:
        self.before_read()
        key = (component, name)
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
        return metric

    def to_dict(self) -> dict:
        self.before_read()

        def section(metrics: Dict[Tuple[str, str], object]) -> dict:
            return {f"{component}/{name}": metrics[(component, name)].to_obj()
                    for component, name in sorted(metrics)}

        return {
            "window": self.window,
            "counters": section(self._counters),
            "gauges": section(self._gauges),
            # nothing writes histograms; the saturn-obs/v1 schema keeps
            # the (empty) section
            "histograms": {},
        }
