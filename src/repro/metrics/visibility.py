"""Remote-update visibility latency recorder.

The paper's key latency metric (§7): the time between an update being
applied at its origin datacenter and becoming visible at a remote replica.
Samples recorded before ``warmup_until`` are discarded, mirroring the
paper's practice of dropping the first minute of each run.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.metrics.stats import mean, percentile

__all__ = ["VisibilityRecorder"]


class VisibilityRecorder:
    """Collects per-(origin, destination) visibility latency samples."""

    def __init__(self, warmup_until: float = 0.0) -> None:
        self.warmup_until = warmup_until
        self._samples: Dict[Tuple[str, str], List[float]] = defaultdict(list)
        #: (recorded-at, origin, dest, latency) in record order — the
        #: windowed queries below slice this for before/after-fault
        #: comparisons (fault-recovery regression tests)
        self._timeline: List[Tuple[float, str, str, float]] = []
        self._clock = None

    def bind_clock(self, sim) -> None:
        """Attach the simulator so warmup filtering can use current time."""
        self._clock = sim

    def record_visibility(self, origin: str, dest: str, latency: float) -> None:
        if self._clock is not None and self._clock.now < self.warmup_until:
            return
        self._samples[(origin, dest)].append(latency)
        if self._clock is not None:
            self._timeline.append((self._clock.now, origin, dest, latency))

    # -- queries ---------------------------------------------------------

    def samples(self, origin: Optional[str] = None,
                dest: Optional[str] = None) -> List[float]:
        """Samples filtered by origin and/or destination (None = any)."""
        collected: List[float] = []
        for (o, d), values in self._samples.items():
            if origin is not None and o != origin:
                continue
            if dest is not None and d != dest:
                continue
            collected.extend(values)
        return collected

    def count(self) -> int:
        return sum(len(v) for v in self._samples.values())

    def mean(self, origin: Optional[str] = None,
             dest: Optional[str] = None) -> float:
        return mean(self.samples(origin, dest))

    def percentile(self, p: float, origin: Optional[str] = None,
                   dest: Optional[str] = None) -> float:
        return percentile(self.samples(origin, dest), p)

    def pairs(self) -> List[Tuple[str, str]]:
        return sorted(self._samples)

    # -- windowed queries (recorded-at time, not latency) -----------------

    def samples_in_window(self, t0: float, t1: float,
                          origin: Optional[str] = None,
                          dest: Optional[str] = None) -> List[float]:
        """Latency samples recorded in ``[t0, t1)``, optionally filtered.

        Only populated when a clock is bound (the harness always binds
        one); used to compare steady-state visibility before a fault with
        visibility after recovery."""
        return [latency for at, o, d, latency in self._timeline
                if t0 <= at < t1
                and (origin is None or o == origin)
                and (dest is None or d == dest)]

    def mean_in_window(self, t0: float, t1: float,
                       origin: Optional[str] = None,
                       dest: Optional[str] = None) -> float:
        return mean(self.samples_in_window(t0, t1, origin, dest))
