"""Simulated physical clocks with skew and drift.

Saturn's gears generate label timestamps from physical clocks (§7 of the
paper: NTP-synchronized before each experiment, so remaining skew is
negligible vs. WAN latency).  We model each node clock as

    clock(t) = t + skew + drift_ppm * 1e-6 * t

and additionally enforce the Lamport-style monotonicity rule gears need:
:meth:`PhysicalClock.timestamp` never returns a value <= the previous one,
and can be bumped past an observed timestamp (``GENERATE_TSTAMP`` in Alg. 2).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry

__all__ = ["PhysicalClock", "ClockFactory"]


class PhysicalClock:
    """Per-node clock: skewed, drifting view of simulated true time."""

    def __init__(self, sim: Simulator, skew: float = 0.0,
                 drift_ppm: float = 0.0) -> None:
        self.sim = sim
        self.skew = skew
        self.drift_ppm = drift_ppm
        self._last_timestamp = float("-inf")

    def now(self) -> float:
        """Current clock reading in ms (may differ from true time)."""
        true = self.sim.now
        return true + self.skew + self.drift_ppm * 1e-6 * true

    def timestamp(self, at_least: Optional[float] = None) -> float:
        """Monotonically increasing timestamp, >= ``at_least`` if given.

        This is the paper's GENERATE_TSTAMP: strictly greater than every
        timestamp previously issued by this clock and strictly greater than
        the client's observed label timestamp.
        """
        candidate = self.now()
        floor = self._last_timestamp
        if at_least is not None and at_least > floor:
            floor = at_least
        if candidate <= floor:
            # nextafter guards the wall-anchored realtime kernel, whose
            # epoch-scale floats are too coarse for the fixed 1e-6 bump;
            # at sim magnitudes the max() always picks floor + 1e-6, so
            # simulated traces are unchanged
            candidate = max(floor + 1e-6, math.nextafter(floor, math.inf))
        self._last_timestamp = candidate
        return candidate


class ClockFactory:
    """Creates node clocks with bounded random skew from a seeded stream."""

    def __init__(self, sim: Simulator, rng: RngRegistry,
                 max_skew: float = 1.0, max_drift_ppm: float = 0.0) -> None:
        self.sim = sim
        self._rng = rng.stream("clock-skew")
        self.max_skew = max_skew
        self.max_drift_ppm = max_drift_ppm

    def create(self) -> PhysicalClock:
        skew = self._rng.uniform(-self.max_skew, self.max_skew)
        drift = self._rng.uniform(-self.max_drift_ppm, self.max_drift_ppm)
        return PhysicalClock(self.sim, skew=skew, drift_ppm=drift)
