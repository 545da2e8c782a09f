"""Small statistics helpers (mean, percentiles) shared by the metrics
recorders and the benchmark harness."""

from __future__ import annotations

from typing import Sequence

__all__ = ["percentile", "mean"]


def mean(samples: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sequence."""
    if not samples:
        return 0.0
    return sum(samples) / len(samples)


def percentile(samples: Sequence[float], p: float) -> float:
    """The *p*-th percentile (0..100) with linear interpolation.

    Raises ``ValueError`` on an empty sequence — a silent 0 would corrupt
    latency reports.
    """
    if not samples:
        raise ValueError("percentile of empty sequence")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    # difference form avoids float overshoot when both endpoints are equal
    return ordered[low] + fraction * (ordered[high] - ordered[low])
