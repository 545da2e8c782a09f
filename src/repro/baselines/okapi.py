"""Okapi baseline (Didona, Fatourou, Guerraoui, Wang, Zwaenepoel).

Okapi tracks causality with a **vector of Hybrid Logical/Physical
Clocks** (HLC, Kulkarni et al.): one entry per datacenter, each entry
an HLC value.  The hybrid clock follows physical time while it
advances, and falls back to logical increments when it stalls or when
a remote timestamp from a skewed clock runs ahead — so causal order
never depends on clock synchronization quality (exercised by the
``okapi-clock-skew`` chaos scenario).

Stabilization uses the **global-cut rule**: every round, each
datacenter broadcasts its *knowledge row* — the highest HLC it has
received from every origin, plus its own clock floor — and assembles
the rows into a knowledge matrix.  The Global Stable Vector is the
column-wise minimum: ``gsv(k)`` is an HLC below which updates from
``k`` have reached *every* datacenter.  An update is revealed once the
GSV dominates its dependency vector.

Consequences for the five-way comparison (EXPERIMENTS.md), per §7.3.1
of the Saturn paper's taxonomy:

* the global cut is **cheaper** than Cure's per-origin streams — one
  aggregated exchange serves all partitions, so the periodic CPU tax
  lands on a single partition instead of all of them — but **less
  fresh**: visibility waits for the slowest datacenter to confirm
  receipt, roughly the slowest origin->peer->here relay plus a
  stabilization round, regardless of the update's origin;
* metadata is vector-sized on every operation, like Cure, so the
  throughput penalty of vector handling remains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.baselines.base import (VECTOR_ENTRY_BYTES, BaselinePayload)
from repro.baselines.cure import CureDatacenter, Vector, freeze_vector
from repro.sim.clock import PhysicalClock

__all__ = ["OkapiDatacenter", "OkapiStabMsg", "HybridClock"]


@dataclass(frozen=True, slots=True)
class OkapiStabMsg:
    """One knowledge row: the sender's highest received HLC per origin.

    The sender's own entry is its clock floor (a promise that every
    future update it creates carries a strictly larger HLC).
    """

    origin_dc: str
    entries: Vector


class HybridClock:
    """Hybrid logical/physical clock encoded into one float.

    The HLC pair ``(l, c)`` is packed as ``l + c * LOGICAL_TICK``: the
    physical part dominates while physical time advances; when it
    stalls — or a remote timestamp runs ahead of it — the logical
    component bumps by ``LOGICAL_TICK`` (three orders of magnitude
    below the physical clock's own 1e-6 monotonicity quantum, so
    logical increments never masquerade as physical progress).
    Monotonicity therefore survives arbitrary skew, including a skew
    spike being *removed* mid-run (``resync``).
    """

    LOGICAL_TICK = 1e-9

    def __init__(self, physical: PhysicalClock) -> None:
        self.physical = physical
        self._last = float("-inf")
        #: diagnostics: timestamps where the logical part outran physical
        self.logical_bumps = 0

    def timestamp(self, at_least: Optional[float] = None) -> float:
        """Strictly increasing HLC, ``> at_least`` if given."""
        floor = self._last
        if at_least is not None and at_least > floor:
            floor = at_least
        candidate = self.physical.now()
        if candidate <= floor:
            candidate = max(floor + self.LOGICAL_TICK,
                            math.nextafter(floor, math.inf))
            self.logical_bumps += 1
        self._last = candidate
        return candidate

    def observe(self, ts: float) -> None:
        """Merge a received HLC: future timestamps exceed it."""
        if ts > self._last:
            self._last = ts


class OkapiDatacenter(CureDatacenter):
    """A datacenter running the Okapi protocol.

    Inherits Cure's vector stamps, pending-queue discipline, and
    dependency-vector visibility test; what changes is the *stable
    frontier* those tests consult — the column-minimum of the knowledge
    matrix (global cut) instead of per-origin stabilization streams —
    and the clock that mints timestamps (HLC instead of raw physical).
    """

    VISIBILITY_MODE = "okapi"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.hlc = HybridClock(self.clock)
        #: knowledge matrix: observer datacenter -> origin -> highest HLC
        self._matrix: Dict[str, Dict[str, float]] = {}
        #: own knowledge row: highest HLC received per remote origin
        self._received: Dict[str, float] = {}

    # -- timestamps ------------------------------------------------------

    def make_timestamp(self, floor: Optional[float]) -> float:
        return self.hlc.timestamp(at_least=floor)

    # -- stable frontier: global cut ------------------------------------

    def gsv(self, origin: str) -> float:
        """Global Stable Vector entry: an HLC below which updates from
        *origin* have provably reached every datacenter."""
        worst = self._received.get(origin, float("-inf"))
        for observer in self.replication.datacenters:
            if observer == self.dc_name:
                continue
            row = self._matrix.get(observer)
            value = row.get(origin, float("-inf")) if row else float("-inf")
            if value < worst:
                worst = value
        return worst

    def stable_entry(self, dc: str) -> float:
        if dc == self.dc_name:
            return float("inf")  # local updates are immediately visible
        return self.gsv(dc)

    # -- stabilization ---------------------------------------------------

    def _knowledge_row(self) -> Vector:
        row = dict(self._received)
        # own entry: clock-floor promise (bumps the HLC, so every future
        # local update carries a strictly larger timestamp)
        row[self.dc_name] = self.hlc.timestamp()
        return freeze_vector(row)

    def _stabilization_round(self) -> None:
        row = self._knowledge_row()
        partners = self.broadcast(OkapiStabMsg(origin_dc=self.dc_name,
                                               entries=row))
        self.metadata_bytes_sent += partners * VECTOR_ENTRY_BYTES * len(row)
        # the cheaper global-cut rule: one aggregated exchange serves the
        # whole datacenter, so the periodic CPU tax lands on a single
        # partition instead of every one of them (contrast base class)
        cost = self.cost_model.stabilization_cost(partners,
                                                  self.vector_entries())
        self.store.partitions[0].cpu.consume(cost)
        self._drain_pending()
        self._check_waiters()

    # -- message handling ------------------------------------------------

    def _on_knowledge_row(self, sender: str, message: OkapiStabMsg) -> None:
        row = dict(message.entries)
        self._matrix[message.origin_dc] = row
        # The sender's own entry is its clock floor: on this FIFO link
        # every payload with a smaller HLC has already arrived, so the
        # floor also advances *our* knowledge of that origin.  Without
        # this, a datacenter that replicates none of an origin's keys
        # would pin the GSV at -inf forever (genuine partial replication
        # would lose liveness).
        floor = row.get(message.origin_dc)
        if floor is not None and floor > self._received.get(
                message.origin_dc, float("-inf")):
            self._received[message.origin_dc] = floor
        self._drain_pending()
        self._check_waiters()

    _HANDLERS = {**CureDatacenter._HANDLERS, OkapiStabMsg: _on_knowledge_row}

    def _on_payload(self, payload: BaselinePayload) -> None:
        # HLC merge: local timestamps move past everything observed, so
        # causal order survives arbitrary physical-clock skew
        self.hlc.observe(payload.label.ts)
        origin = payload.label.origin_dc
        if payload.label.ts > self._received.get(origin, float("-inf")):
            self._received[origin] = payload.label.ts
        super()._on_payload(payload)
