"""Measurement: visibility latency, throughput, statistics."""

from repro.metrics.stats import mean, percentile
from repro.metrics.throughput import OpRecorder
from repro.metrics.visibility import VisibilityRecorder

__all__ = ["mean", "percentile", "OpRecorder", "VisibilityRecorder"]
