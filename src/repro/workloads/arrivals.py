"""Open-loop arrivals: operations paced by a request process.

The paper (like Basho Bench) drives every experiment *closed-loop*: each
client issues its next operation the instant the previous one completes,
so the offered load can never exceed the service rate and the system can
never be pushed past saturation.  That stays the default
(``ClusterConfig.arrivals=None``).  :class:`PoissonArrivals` is the
*open-loop* alternative: a homogeneous Poisson request process per
datacenter whose operations arrive at a configured rate regardless of how
fast (or whether) earlier ones finish, which is what lets the overload
study observe queue growth, backpressure, and the throughput cliff.

It is consumed by :class:`repro.workloads.openloop.OpenLoopSource`, which
schedules the arrival events on the simulation kernel and dispatches each
one to an idle client (growing the client pool on demand — a true open
loop has unbounded concurrency).  All draws come from named
:class:`~repro.sim.rng.RngRegistry` streams, so arrival sequences are
deterministic per (seed, datacenter).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PoissonArrivals"]


@dataclass(frozen=True)
class PoissonArrivals:
    """Homogeneous Poisson arrivals at ``rate_ops_s`` per datacenter."""

    rate_ops_s: float

    def __post_init__(self) -> None:
        if self.rate_ops_s <= 0:
            raise ValueError("rate_ops_s must be positive")

    def next_interarrival(self, stream, now_ms: float) -> float:
        """Milliseconds until the next arrival after *now_ms*."""
        return stream.expovariate(self.rate_ops_s / 1000.0)
