"""Statistics the benchmark reports with: guarded percentiles, run-to-run
spread, and the parent-vs-change comparison behind ``--compare``."""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

from repro.metrics.stats import percentile as _percentile

__all__ = ["MIN_BEYOND", "percentile", "spread", "compare"]

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


def percentile(samples: Sequence[float], p: float) -> float:
    """The *p*-th percentile, refused when fewer than ``MIN_BEYOND``
    samples lie beyond it (on the far side from the median)."""
    beyond = len(samples) * min(p, 100.0 - p) / 100.0
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {len(samples)} samples has {beyond:.1f} beyond it "
            f"(need {MIN_BEYOND}); run a larger --scale")
    return _percentile(samples, p)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 runs)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def compare(parent: Dict, change: Dict, end_to_end: List[Dict]) -> List[Dict]:
    """One row per (workload, end-to-end metric) present in both result
    sets: ``ok``, ``worse`` (the change's median is worse than the
    parent's by more than the bound) or ``unresolved`` (either side's
    run-to-run spread is wider than the bound, so the medians cannot
    tell)."""
    rows = []
    for workload, parent_metrics in parent["workloads"].items():
        change_metrics = change["workloads"].get(workload)
        if change_metrics is None:
            continue
        for spec in end_to_end:
            name = spec["name"]
            before = parent_metrics["end_to_end"].get(name)
            after = change_metrics["end_to_end"].get(name)
            if not before or not after:
                continue
            base, new = statistics.median(before), statistics.median(after)
            worse_by = (new - base) / base
            if spec["better"] == "higher":
                worse_by = -worse_by
            widest = max(spread(before), spread(after))
            if widest > spec["bound"]:
                verdict = "unresolved"
            elif worse_by > spec["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            rows.append({"workload": workload, "metric": name,
                         "unit": spec["unit"], "parent": base, "change": new,
                         "worse_by": worse_by, "spread": widest,
                         "bound": spec["bound"], "verdict": verdict})
    return rows
