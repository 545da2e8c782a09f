"""Server CPU model used for throughput experiments.

Absolute ops/s of the paper's Erlang servers cannot be reproduced in Python,
so throughput experiments run on an explicit cost model: every operation a
storage server executes consumes CPU time on that server's serial
:class:`ServerCPU` queue.  The costs (scalar vs. vector metadata handling,
stabilization heartbeats, payload size) are what create the throughput gaps
between Eventual, Saturn, GentleRain, and Cure in the paper, and they are the
knobs of :class:`CostModel`.

Saturation throughput of a server is ``1 / service_time``; closed-loop
clients (zero think time) drive the system to that limit exactly as Basho
Bench does in the paper's setup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.sim.engine import Simulator

__all__ = ["ServerCPU", "CostModel", "REMOTE_APPLY_FACTOR"]

#: applying a replicated update costs this share of the local write (no
#: client round trip, no label to generate); one value for every protocol
REMOTE_APPLY_FACTOR = 0.6


@dataclass
class CostModel:
    """Per-operation CPU costs in milliseconds.

    Defaults are calibrated so that a 7-DC full-replication run reproduces
    the paper's headline gaps: Saturn ~2% below eventual, GentleRain ~5%
    below, Cure ~25% below (§7.3.2).
    """

    #: base cost of serving a read from local storage
    read_base: float = 0.22
    #: base cost of applying a write (local or remote) to storage
    write_base: float = 0.30
    #: extra cost per payload byte (serialization / copying)
    per_byte: float = 0.0002
    #: cost of generating/comparing one scalar label (Saturn, GentleRain)
    scalar_metadata: float = 0.006
    #: cost per vector entry of creating/merging a vector clock (Cure)
    vector_entry_metadata: float = 0.009
    #: CPU consumed by one stabilization round, per remote partner
    #: (GentleRain/Cure background GST computation, every 5 ms)
    stabilization_per_partner: float = 0.040
    #: cost for the label sink to batch/forward one label (Saturn)
    label_sink_per_label: float = 0.010
    #: cost of an attach/migration stability check
    attach_check: float = 0.050

    def read_cost(self, value_size: int, vector_entries: int = 0) -> float:
        cost = self.read_base + self.per_byte * value_size
        if vector_entries:
            cost += self.vector_entry_metadata * vector_entries
        else:
            cost += self.scalar_metadata
        return cost

    def write_cost(self, value_size: int, vector_entries: int = 0) -> float:
        cost = self.write_base + self.per_byte * value_size
        if vector_entries:
            cost += self.vector_entry_metadata * vector_entries
        else:
            cost += self.scalar_metadata
        return cost

    def stabilization_cost(self, partners: int, vector_entries: int = 0) -> float:
        cost = self.stabilization_per_partner * partners
        if vector_entries:
            cost += self.vector_entry_metadata * vector_entries * partners * 0.5
        return cost


class ServerCPU:
    """Serial work queue: one server core executing operations in order."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        #: when the queued work ends (simulated ms)
        self.busy_until = 0.0
        self.busy_time = 0.0
        self.ops_executed = 0

    def submit(self, cost: float, callback: Callable[[], None]) -> float:
        """Enqueue work costing *cost* ms; run *callback* at completion.

        Returns the completion time.
        """
        if cost < 0:
            raise ValueError("cost must be non-negative")
        now = self.sim.now
        finish = (now if now > self.busy_until else self.busy_until) + cost
        self.busy_until = finish
        self.busy_time += cost
        self.ops_executed += 1
        self.sim.schedule_at(finish, callback)
        return finish

    def consume(self, cost: float) -> None:
        """Consume background CPU time with no completion callback."""
        if cost <= 0:
            return
        start = max(self.sim.now, self.busy_until)
        self.busy_until = start + cost
        self.busy_time += cost
