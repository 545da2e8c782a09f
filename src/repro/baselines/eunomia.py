"""Eunomia baseline (Gunawardhana, Bravo, Rodrigues — ATC 2017).

Eunomia moves causal-consistency bookkeeping **off the client critical
path**: a per-datacenter *site sequencer* receives every local update
after it has already been acknowledged to the client, folds it into a
site-local total order (timestamps are monotone per site, so arrival
order over the FIFO link *is* timestamp order), and ships it to remote
datacenters in periodic batches together with a *stable floor* — a
promise that no update from this site with a smaller timestamp will
ever be sent again.

Remote updates are revealed by **deferred stabilization**: an update
with timestamp ``t`` becomes visible once every site's stable floor has
passed ``t`` (the same global-cut shape as GentleRain's GST), but the
machinery that advances the floors — sequencing, batching, floor
exchange — runs entirely on the sequencer, so storage partitions pay
neither vector metadata nor periodic stabilization CPU.

Consequences for the five-way comparison (EXPERIMENTS.md):

* throughput tracks *eventual* (scalar metadata, no stabilization tax
  on the partitions) — the paper's "unobtrusive" claim;
* visibility latency resembles GentleRain's furthest-DC bound plus up
  to one sequencer batching interval (``batch_period``), the knob that
  trades staleness for batching efficiency;
* a crashed / isolated sequencer freezes the site's floor: remote
  visibility of its updates stalls (liveness) but causality is never
  violated (safety) — exercised by the ``eunomia-seq-crash`` chaos
  scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.baselines.base import (SCALAR_STAMP_BYTES, BaselinePayload,
                                  stamp_wire_bytes)
from repro.baselines.gentlerain import GentleRainDatacenter
from repro.core.naming import dc_process_name, sequencer_process_name
from repro.core.replication import ReplicationMap
from repro.sim.cpu import CostModel, ServerCPU
from repro.sim.engine import Simulator
from repro.sim.process import Process

__all__ = ["EunomiaDatacenter", "EunomiaSequencer", "EunomiaTick",
           "EunomiaBatch", "eunomia_merge"]


@dataclass(frozen=True, slots=True)
class EunomiaTick:
    """Datacenter -> its sequencer: clock-floor promise.

    ``floor`` was drawn with the monotonic-bump rule, so every update
    the datacenter creates after sending this tick carries ``ts >
    floor`` — and every update with ``ts <= floor`` was sent *before*
    the tick on the same FIFO link, hence has already arrived.
    """

    origin_dc: str
    floor: float


@dataclass(frozen=True, slots=True)
class EunomiaBatch:
    """Sequencer -> remote datacenter: sequenced updates + stable floor.

    ``payloads`` are in site-local total (= timestamp) order and contain
    every buffered update replicated at the destination; ``stable_ts``
    promises that no future batch on this link carries a payload with a
    smaller timestamp.  An empty batch is a pure floor heartbeat.
    """

    origin_dc: str
    payloads: Tuple[BaselinePayload, ...]
    stable_ts: float


def eunomia_merge(a, b):
    """Client stamp merge: maximum observed update timestamp (scalar)."""
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


class EunomiaSequencer(Process):
    """Site sequencer: orders local updates off the critical path.

    Runs on its own :class:`ServerCPU` — the deferred dependency
    bookkeeping is paid *here*, not on the storage partitions, so an
    overloaded sequencer delays remote visibility without touching
    client-facing throughput.  Ticks and payloads flow through the same
    serial queue, which preserves the FIFO soundness argument above
    even when the sequencer falls behind.
    """

    def __init__(self, sim: Simulator, dc_name: str,
                 replication: ReplicationMap, cost_model: CostModel,
                 batch_period: float = 2.0) -> None:
        super().__init__(sim, sequencer_process_name(dc_name))
        self.dc_name = dc_name
        self.replication = replication
        self.cost_model = cost_model
        self.batch_period = batch_period
        self.cpu = ServerCPU(sim)
        #: sequenced updates awaiting the next batch tick, in ts order
        self._ordered: List[BaselinePayload] = []
        self._stable_floor = 0.0
        self.updates_sequenced = 0
        self.batches_sent = 0
        self.metadata_bytes_sent = 0

    def start(self) -> None:
        self.every(self.batch_period, self._batch_tick)

    def _on_payload(self, sender: str, message: BaselinePayload) -> None:
        cost = (self.cost_model.scalar_metadata
                + self.cost_model.vector_entry_metadata
                * len(self.replication.datacenters))

        def _sequenced(payload=message) -> None:
            self._ordered.append(payload)
            self.updates_sequenced += 1

        self.cpu.submit(cost, _sequenced)

    def _on_tick(self, sender: str, message: EunomiaTick) -> None:
        def _advance(floor=message.floor) -> None:
            if floor > self._stable_floor:
                self._stable_floor = floor

        self.cpu.submit(self.cost_model.scalar_metadata, _advance)

    _HANDLERS = {BaselinePayload: _on_payload, EunomiaTick: _on_tick}

    def _batch_tick(self) -> None:
        ordered, self._ordered = self._ordered, []
        per_target: Dict[str, List[BaselinePayload]] = {}
        for payload in ordered:
            for replica in sorted(self.replication.replicas(payload.key)):
                if replica != self.dc_name:
                    per_target.setdefault(replica, []).append(payload)
        stable = self._stable_floor
        for dc in sorted(self.replication.datacenters):
            if dc == self.dc_name:
                continue
            payloads = tuple(per_target.get(dc, ()))
            batch = EunomiaBatch(origin_dc=self.dc_name, payloads=payloads,
                                 stable_ts=stable)
            size = sum(p.value_size for p in payloads)
            self.send(dc_process_name(dc), batch, size_bytes=size)
            self.metadata_bytes_sent += SCALAR_STAMP_BYTES * (1 + len(payloads))
            self.batches_sent += 1


class EunomiaDatacenter(GentleRainDatacenter):
    """A datacenter running the Eunomia protocol.

    Inherits GentleRain's scalar stamps and global-cut stability test
    (``gst() >= ts``); what changes is *where the floors come from*:
    per-site sequencer batches instead of all-to-all stabilization
    rounds, and the rounds' CPU cost disappears from the partitions.
    """

    VISIBILITY_MODE = "eunomia"

    def __init__(self, *args, batch_period: float = 2.0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.sequencer = EunomiaSequencer(
            self.sim, self.dc_name, self.replication, self.cost_model,
            batch_period=batch_period)

    # -- wiring (the builder attaches and places the sequencer) ----------

    def start(self) -> None:
        super().start()
        self.sequencer.start()

    # -- protocol overrides ---------------------------------------------

    def _stabilization_round(self) -> None:
        # Unobtrusive: one local tick to the co-located sequencer; no
        # all-to-all broadcast, no CPU charged to the storage partitions.
        floor = self.clock.timestamp()
        self.send(self.sequencer.name,
                  EunomiaTick(origin_dc=self.dc_name, floor=floor))
        self.metadata_bytes_sent += SCALAR_STAMP_BYTES
        self._drain_pending()
        self._check_waiters()

    def _ship_update(self, payload: BaselinePayload, value_size: int) -> None:
        # Route through the site sequencer (one local FIFO hop); the
        # sequencer fans out to the replicas at the next batch tick.
        self.send(self.sequencer.name, payload, size_bytes=value_size)
        self.metadata_bytes_sent += stamp_wire_bytes(payload.stamp)

    def _on_batch(self, sender: str, batch: EunomiaBatch) -> None:
        for payload in batch.payloads:
            self._on_payload(payload)
        if batch.stable_ts > self._remote_info.get(batch.origin_dc,
                                                   float("-inf")):
            self._remote_info[batch.origin_dc] = batch.stable_ts
        self._drain_pending()
        self._check_waiters()

    _HANDLERS = {**GentleRainDatacenter._HANDLERS, EunomiaBatch: _on_batch}
