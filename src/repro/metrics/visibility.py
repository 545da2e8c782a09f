"""Remote-update visibility latency recorder.

The paper's key latency metric (§7): the time between an update being
applied at its origin datacenter and becoming visible at a remote replica.
Samples recorded before ``warmup_until`` are discarded, mirroring the
paper's practice of dropping the first minute of each run.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Tuple

from repro.metrics.stats import mean, percentile

__all__ = ["VisibilityRecorder"]


class VisibilityRecorder:
    """Collects per-(origin, destination) visibility latency samples.

    Columnar: each pair's latencies are one ``array('d')``, and the
    timeline the windowed queries read is three more columns (recorded-at
    time, pair code, latency), so a sample costs 26 bytes and no Python
    object.  A pair's code is its index in first-seen order; the timeline
    holds up to 65,536 distinct pairs (256 datacenters)."""

    def __init__(self, warmup_until: float = 0.0) -> None:
        self.warmup_until = warmup_until
        #: pair -> its code: the index of its column in ``_columns``
        self._code_of: Dict[Tuple[str, str], int] = {}
        self._columns: List[array] = []
        #: (recorded-at, pair code, latency) in record order — the
        #: windowed queries below slice this for before/after-fault
        #: comparisons (fault-recovery regression tests)
        self._at = array("d")
        self._pair = array("H")
        self._latency = array("d")
        self._clock = None

    def bind_clock(self, sim) -> None:
        """Attach the simulator so warmup filtering can use current time."""
        self._clock = sim

    def record_visibility(self, origin: str, dest: str, latency: float) -> None:
        clock = self._clock
        if clock is not None and clock.now < self.warmup_until:
            return
        code = self._code_of.get((origin, dest))
        if code is None:
            code = self._code_of[(origin, dest)] = len(self._columns)
            self._columns.append(array("d"))
        self._columns[code].append(latency)
        if clock is not None:
            self._at.append(clock.now)
            self._pair.append(code)
            self._latency.append(latency)

    # -- queries ---------------------------------------------------------

    def _codes(self, origin: Optional[str],
               dest: Optional[str]) -> List[int]:
        """Codes of the pairs matching the filter, in first-seen order."""
        return [code for (o, d), code in self._code_of.items()
                if (origin is None or o == origin)
                and (dest is None or d == dest)]

    def samples(self, origin: Optional[str] = None,
                dest: Optional[str] = None) -> List[float]:
        """Samples filtered by origin and/or destination (None = any)."""
        collected: List[float] = []
        for code in self._codes(origin, dest):
            collected.extend(self._columns[code])
        return collected

    def count(self) -> int:
        return sum(len(column) for column in self._columns)

    def mean(self, origin: Optional[str] = None,
             dest: Optional[str] = None) -> float:
        return mean(self.samples(origin, dest))

    def percentile(self, p: float, origin: Optional[str] = None,
                   dest: Optional[str] = None) -> float:
        return percentile(self.samples(origin, dest), p)

    def pairs(self) -> List[Tuple[str, str]]:
        return sorted(self._code_of)

    # -- windowed queries (recorded-at time, not latency) -----------------

    def samples_in_window(self, t0: float, t1: float,
                          origin: Optional[str] = None,
                          dest: Optional[str] = None) -> List[float]:
        """Latency samples recorded in ``[t0, t1)``, optionally filtered.

        Only populated when a clock is bound (the harness always binds
        one); used to compare steady-state visibility before a fault with
        visibility after recovery."""
        codes = set(self._codes(origin, dest))
        return [latency for at, code, latency
                in zip(self._at, self._pair, self._latency)
                if t0 <= at < t1 and code in codes]

    def mean_in_window(self, t0: float, t1: float,
                       origin: Optional[str] = None,
                       dest: Optional[str] = None) -> float:
        return mean(self.samples_in_window(t0, t1, origin, dest))
