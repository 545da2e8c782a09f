"""Formatting helpers: print experiment results the way the paper reports
them (tables of rows / CDF series)."""

from __future__ import annotations

from typing import Optional, Sequence

__all__ = ["format_table", "format_cdf_summary", "round_floats"]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Plain-text table with right-aligned numeric columns."""
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.1f}"
        return str(cell)

    text_rows = [[fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(cell.rjust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_cdf_summary(name: str, samples: Sequence[float],
                       percentiles: Sequence[float] = (50, 90, 99)) -> str:
    """One-line CDF summary (the paper plots full CDFs; we report the
    quantiles that the text discusses)."""
    from repro.metrics.stats import mean, percentile
    if not samples:
        return f"{name}: (no samples)"
    parts = [f"mean={mean(samples):.1f}ms"]
    for p in percentiles:
        parts.append(f"p{int(p)}={percentile(samples, p):.1f}ms")
    return f"{name}: " + "  ".join(parts) + f"  (n={len(samples)})"


def round_floats(value, digits: int = 6):
    """*value* with every float rounded, recursively: the projection the
    golden-pinned smoke summaries compare byte for byte."""
    if isinstance(value, dict):
        return {k: round_floats(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [round_floats(v, digits) for v in value]
    return round(value, digits) if isinstance(value, float) else value
