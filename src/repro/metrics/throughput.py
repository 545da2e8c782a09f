"""Client operation recorder: throughput and operation latency.

Columnar: a completion is one slot in each of three fixed-width columns
(completion time and latency as doubles, the op kind as one byte that
indexes a first-seen kind table), 17 bytes and no Python object per op.
"""

from __future__ import annotations

from array import array
from typing import Dict, List

from repro.metrics.stats import mean, percentile

__all__ = ["OpRecorder"]


class OpRecorder:
    """Records completed client operations with completion timestamps."""

    def __init__(self) -> None:
        self._at = array("d")
        self._latency = array("d")
        #: per op, its kind's code: the kind's index in first-seen order
        #: (a byte, so at most 256 kinds)
        self._kind = bytearray()
        self._kind_code: Dict[str, int] = {}

    def record_op(self, kind: str, latency: float, at: float) -> None:
        code = self._kind_code.get(kind)
        if code is None:
            code = self._kind_code[kind] = len(self._kind_code)
        self._kind.append(code)
        self._at.append(at)
        self._latency.append(latency)

    # -- queries ---------------------------------------------------------

    def total_ops(self) -> int:
        return len(self._at)

    def counts(self) -> Dict[str, int]:
        """Completions per kind, keyed in order of each kind's first."""
        return {kind: self._kind.count(code)
                for kind, code in self._kind_code.items()}

    def ops_in_window(self, start: float, end: float) -> int:
        return sum(1 for at in self._at if start <= at < end)

    def latencies(self, kind: str = None, start: float = 0.0) -> List[float]:
        code = self._kind_code.get(kind)
        return [lat for at, k, lat in zip(self._at, self._kind, self._latency)
                if at >= start and (kind is None or k == code)]

    def mean_latency(self, kind: str = None, start: float = 0.0) -> float:
        return mean(self.latencies(kind, start))

    def latency_percentile(self, p: float, kind: str = None,
                           start: float = 0.0) -> float:
        return percentile(self.latencies(kind, start), p)
