"""Unit tests for physical clocks (skew, drift, monotonic timestamps)."""

from hypothesis import given, strategies as st

from repro.sim.clock import ClockFactory, PhysicalClock
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


def test_now_tracks_simulated_time(sim):
    clock = PhysicalClock(sim)
    sim.schedule(10.0, lambda: None)
    sim.run()
    assert clock.now() == 10.0


def test_skew_offsets_reading(sim):
    clock = PhysicalClock(sim, skew=2.5)
    assert clock.now() == 2.5


def test_drift_grows_with_time(sim):
    clock = PhysicalClock(sim, drift_ppm=1000.0)  # 0.1%
    sim.schedule(1000.0, lambda: None)
    sim.run()
    assert abs(clock.now() - 1001.0) < 1e-9


def test_timestamps_strictly_increase(sim):
    clock = PhysicalClock(sim)
    stamps = [clock.timestamp() for _ in range(100)]
    assert all(b > a for a, b in zip(stamps, stamps[1:]))


def test_timestamp_respects_at_least(sim):
    clock = PhysicalClock(sim)
    ts = clock.timestamp(at_least=500.0)
    assert ts > 500.0
    # and stays monotonic afterwards
    assert clock.timestamp() > ts


def test_timestamp_at_least_in_past_is_ignored(sim):
    clock = PhysicalClock(sim, skew=100.0)
    first = clock.timestamp()
    second = clock.timestamp(at_least=1.0)
    assert second > first


def test_factory_bounds_skew(sim):
    factory = ClockFactory(sim, RngRegistry(seed=5), max_skew=2.0)
    for _ in range(50):
        clock = factory.create()
        assert -2.0 <= clock.skew <= 2.0


def test_factory_deterministic(sim):
    skews_a = [ClockFactory(sim, RngRegistry(seed=5)).create().skew
               for _ in range(1)]
    skews_b = [ClockFactory(sim, RngRegistry(seed=5)).create().skew
               for _ in range(1)]
    assert skews_a == skews_b


@given(st.lists(st.floats(min_value=0, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=50))
def test_timestamp_monotonic_under_arbitrary_at_least(at_leasts):
    sim = Simulator()
    clock = PhysicalClock(sim, skew=0.0)
    previous = float("-inf")
    for bound in at_leasts:
        ts = clock.timestamp(at_least=bound)
        assert ts > previous
        assert ts > bound
        previous = ts
