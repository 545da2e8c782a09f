"""Client operation recorder: throughput and operation latency."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.metrics.stats import mean, percentile

__all__ = ["OpRecorder"]


class OpRecorder:
    """Records completed client operations with completion timestamps."""

    def __init__(self) -> None:
        self._completions: List[Tuple[float, str, float]] = []

    def record_op(self, kind: str, latency: float, at: float) -> None:
        self._completions.append((at, kind, latency))

    # -- queries ---------------------------------------------------------

    def total_ops(self) -> int:
        return len(self._completions)

    def counts(self) -> Dict[str, int]:
        """Completions per kind, keyed in order of each kind's first."""
        counts: Dict[str, int] = {}
        for _, kind, _ in self._completions:
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def ops_in_window(self, start: float, end: float) -> int:
        return sum(1 for at, _, _ in self._completions if start <= at < end)

    def latencies(self, kind: str = None, start: float = 0.0) -> List[float]:
        return [lat for at, k, lat in self._completions
                if at >= start and (kind is None or k == kind)]

    def mean_latency(self, kind: str = None, start: float = 0.0) -> float:
        return mean(self.latencies(kind, start))

    def latency_percentile(self, p: float, kind: str = None,
                           start: float = 0.0) -> float:
        return percentile(self.latencies(kind, start), p)
