"""Benchmark configuration.

Every benchmark regenerates one of the paper's tables or figures and prints
the rows/series the paper reports (paper-reported values alongside, where
the text gives them).  ``pytest benchmarks/ --benchmark-only`` runs them.

Scale control: set ``REPRO_BENCH_SCALE=smoke`` for quick runs or
``=full`` for longer, lower-noise runs; the default is a balance sized for
a laptop (each figure takes tens of seconds to a few minutes).
"""

import os

import pytest

from repro.harness.runner import DEFAULT, SMOKE, Scale

_SCALES = {
    "smoke": SMOKE,
    "default": DEFAULT,
    "full": Scale(duration=2000.0, warmup=400.0, clients_per_dc=10,
                  facebook_clients_per_dc=72, beam_width=10),
}


@pytest.fixture(scope="session")
def scale() -> Scale:
    name = os.environ.get("REPRO_BENCH_SCALE", "default")
    return _SCALES.get(name, DEFAULT)


def run_pedantic(benchmark, func, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
