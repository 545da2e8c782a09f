"""Open-loop arrivals: validation, rate, interarrival statistics.

The Poisson arrival process is a pure sampler over named RNG streams, so
it is tested directly — no cluster run required.  Interarrival means are
checked statistically against pinned seeds.
"""

import pytest

from repro.harness.runner import Cluster, ClusterConfig
from repro.sim.rng import RngRegistry
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.synthetic import SyntheticWorkload


def test_closed_loop_is_not_open():
    """The default (``arrivals=None``) builds the closed-loop client
    roster; an arrival model builds open-loop sources instead."""
    def build(arrivals):
        return Cluster(ClusterConfig(system="saturn", sites=("I", "F"),
                                     clients_per_dc=2, arrivals=arrivals),
                       SyntheticWorkload())

    closed = build(None)
    assert len(closed.clients) == 4 and not closed.sources
    opened = build(PoissonArrivals(100.0))
    assert not opened.clients and len(opened.sources) == 2


def test_validation_errors():
    with pytest.raises(ValueError):
        PoissonArrivals(0.0)
    with pytest.raises(ValueError):
        PoissonArrivals(-5.0)


def test_poisson_interarrival_mean():
    """Mean gap over many draws ≈ 1000/rate milliseconds."""
    stream = RngRegistry(seed=11).stream("openloop-I")
    arrivals = PoissonArrivals(500.0)
    draws = [arrivals.next_interarrival(stream, 0.0) for _ in range(20_000)]
    assert all(gap >= 0.0 for gap in draws)
    assert sum(draws) / len(draws) == pytest.approx(2.0, rel=0.05)


def test_interarrival_sequence_is_deterministic_per_stream():
    def draw(seed, name):
        stream = RngRegistry(seed=seed).stream(name)
        arrivals = PoissonArrivals(300.0)
        now, out = 0.0, []
        for _ in range(200):
            gap = arrivals.next_interarrival(stream, now)
            now += gap
            out.append(gap)
        return out

    assert draw(11, "openloop-I") == draw(11, "openloop-I")
    assert draw(11, "openloop-I") != draw(11, "openloop-F")
    assert draw(11, "openloop-I") != draw(12, "openloop-I")


def test_frozen_dataclasses_hash_and_compare():
    """An arrival model is a config value: frozen, comparable, hashable."""
    assert PoissonArrivals(100.0) == PoissonArrivals(100.0)
    assert hash(PoissonArrivals(5.0)) == hash(PoissonArrivals(5.0))
    with pytest.raises(Exception):
        PoissonArrivals(100.0).rate_ops_s = 200.0
