"""Component-keyed metrics registry over simulated time.

Counters, gauges and histograms are keyed by ``(component, name)`` and
created lazily on first touch.  Nothing here schedules simulator events or
reads a clock: call sites pass the simulated time of each observation, so a
registry costs nothing when no instrumentation points reference it and the
disabled hot path stays untouched (the ``if self.obs is not None`` guard at
every call site is the whole cost).

Counters optionally bucket their increments into fixed windows of simulated
time (``window`` ms), which is what turns an end-of-run total into a rate
timeline.  Exports are sorted by ``component/name`` so the serialized form
is bit-deterministic.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.metrics.stats import mean, percentile

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


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


class Histogram:
    """Timestamped samples with summary statistics."""

    __slots__ = ("_samples",)

    def __init__(self) -> None:
        self._samples: List[Tuple[float, float]] = []

    def observe(self, value: float, at: float = 0.0) -> None:
        self._samples.append((at, value))

    @property
    def count(self) -> int:
        return len(self._samples)

    def values(self) -> List[float]:
        return [value for _, value in self._samples]

    def values_in(self, t0: float, t1: float) -> List[float]:
        """Samples observed in the half-open window ``[t0, t1)``."""
        return [value for at, value in self._samples if t0 <= at < t1]

    def to_obj(self) -> dict:
        values = self.values()
        obj: dict = {"count": len(values)}
        if values:
            obj["mean"] = mean(values)
            obj["min"] = min(values)
            obj["max"] = max(values)
            obj["p50"] = percentile(values, 50.0)
            obj["p90"] = percentile(values, 90.0)
            obj["p99"] = percentile(values, 99.0)
        return obj


class MetricsRegistry:
    """Lazily-created metrics keyed by ``(component, name)``."""

    def __init__(self, window: float = 0.0) -> None:
        self.window = window
        self._counters: Dict[Tuple[str, str], Counter] = {}
        self._gauges: Dict[Tuple[str, str], Gauge] = {}
        self._histograms: Dict[Tuple[str, str], Histogram] = {}
        #: run before counters and histograms are handed out or exported: a
        #: producer that logs first and counts later (LabelTracer) folds its
        #: backlog in here, so a Counter is as fresh as its last lookup
        self.before_read: Callable[[], None] = lambda: None

    def counter(self, component: str, name: str) -> Counter:
        self.before_read()
        key = (component, name)
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter(window=self.window)
        return metric

    def gauge(self, component: str, name: str) -> Gauge:
        key = (component, name)
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
        return metric

    def histogram(self, component: str, name: str) -> Histogram:
        self.before_read()
        key = (component, name)
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram()
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
            "histograms": section(self._histograms),
        }
