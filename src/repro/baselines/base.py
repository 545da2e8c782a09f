"""Shared scaffolding for the stabilization-based baselines.

GentleRain [26] and Cure [3] follow the same blueprint (§7.3.1): updates are
tagged with metadata (a scalar / a vector), shipped to replicas, and held in
a pending set until a background *stabilization* mechanism — run every 5 ms,
per the authors' specifications — proves them causally safe to reveal.

:class:`StabilizedDatacenter` adds to the shared datacenter skeleton
(:class:`~repro.datacenter.base.Datacenter`: store, reads, replica fan-out,
recorders) what the family has in common: stamped updates, payload
buffering, the periodic stabilization exchange, and attach blocking.
Subclasses define the metadata type (the client *stamp*), the stability
predicate, and the CPU costs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.core.label import Label, LabelType
from repro.datacenter.base import Datacenter
from repro.datacenter.messages import (ClientAttach, ClientUpdate,
                                       StabilizationMsg, UpdateReply)
from repro.datacenter.storage import StoredValue
from repro.sim.cpu import REMOTE_APPLY_FACTOR

__all__ = ["StabilizedDatacenter", "BaselinePayload", "BaselineStamp",
           "stamp_wire_bytes", "SCALAR_STAMP_BYTES", "VECTOR_ENTRY_BYTES"]

#: Dependency metadata carried on the wire: GentleRain ships a scalar
#: timestamp, Cure a sorted ``(dc, ts)`` tuple vector.  Plain immutable
#: data only — the stamp is shared between sender and receivers.
BaselineStamp = Union[float, Tuple[Tuple[str, float], ...]]


@dataclass(frozen=True, slots=True)
class BaselinePayload:
    """Replicated update for the stabilization-based systems."""

    label: Label            # (ts, src) version id, origin_dc set
    key: str
    value_size: int
    created_at: float
    stamp: BaselineStamp    # scalar (GentleRain) or vector (Cure) dependency


#: nominal wire size of one scalar timestamp / one vector entry, used for
#: the metadata bytes-per-update comparison (EXPERIMENTS.md): the absolute
#: numbers are conventional, the *ratios* between systems are the result
SCALAR_STAMP_BYTES = 8
VECTOR_ENTRY_BYTES = 16


def stamp_wire_bytes(stamp: BaselineStamp) -> int:
    """Nominal serialized size of one dependency stamp."""
    if isinstance(stamp, tuple):
        return VECTOR_ENTRY_BYTES * len(stamp)
    return SCALAR_STAMP_BYTES


class StabilizedDatacenter(Datacenter):
    """Common machinery of GentleRain- and Cure-style datacenters."""

    #: stabilization period from the papers (ms)
    STABILIZATION_PERIOD = 5.0

    #: ``mode`` tag for obs ``visible`` events (per-baseline chain
    #: vocabulary; see repro.obs.trace — only ``saturn`` mode carries
    #: structural obligations, baseline modes are purely descriptive)
    VISIBILITY_MODE = "stabilized"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: remote updates not yet causally safe to reveal, per origin; each
        #: queue is in arrival = timestamp order (origin clocks are
        #: monotonic and bulk links are FIFO)
        self._pending: Dict[str, Deque[BaselinePayload]] = {}
        #: timestamp of the last update dispatched per origin (visibility
        #: happens in dispatch order, so this bounds the finalized frontier)
        self._dispatched_ts: Dict[str, float] = {}
        #: in-order visibility pipeline (apply in parallel, reveal in order)
        self._pipeline: Deque[List] = deque()
        #: latest stabilization scalar received per remote datacenter (both
        #: baselines broadcast their local clock floor; Cure's stable
        #: *vector* is assembled receiver-side from these per-origin entries)
        self._remote_info: Dict[str, float] = {}
        self._waiters: List[Tuple[object, callable]] = []
        self.updates_applied = 0
        #: nominal dependency-metadata bytes shipped by this DC (update
        #: stamps + stabilization traffic), for the five-way comparison
        self.metadata_bytes_sent = 0

    # ------------------------------------------------------------------
    # hooks for subclasses
    # ------------------------------------------------------------------

    def local_stabilization_value(self) -> object:
        """Value broadcast to peers each stabilization round."""
        raise NotImplementedError

    def is_stable(self, stamp: object) -> bool:
        """Whether a dependency stamp is covered by the stable frontier."""
        raise NotImplementedError

    def make_update_stamp(self, client_stamp: object, ts: float) -> object:
        """Metadata attached to a new local update."""
        raise NotImplementedError

    def vector_entries(self) -> int:
        """Metadata width for the CPU cost model (0 = scalar)."""
        return 0

    def read_metadata_entries(self) -> int:
        """Metadata width charged on the client *read* path.

        Defaults to :meth:`vector_entries`; Eunomia overrides it to 0
        because the sequencer keeps dependency tracking off the client
        critical path."""
        return self.vector_entries()

    def write_metadata_entries(self) -> int:
        """Metadata width charged on the client *update* path."""
        return self.vector_entries()

    def make_timestamp(self, floor: Optional[float]) -> float:
        """Timestamp for a new local update (Okapi substitutes an HLC)."""
        return self.clock.timestamp(at_least=floor)

    def _ship_update(self, payload: BaselinePayload, value_size: int) -> None:
        """Replicate a fresh local update (Eunomia routes via its sequencer)."""
        replicas = self.replicate(payload.key, payload, value_size)
        self.metadata_bytes_sent += replicas * stamp_wire_bytes(payload.stamp)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        self.every(self.STABILIZATION_PERIOD, self._stabilization_round)

    def _stabilization_round(self) -> None:
        partners = self.broadcast(StabilizationMsg(
            origin_dc=self.dc_name, value=self.local_stabilization_value()))
        self.metadata_bytes_sent += partners * SCALAR_STAMP_BYTES
        cost = self.cost_model.stabilization_cost(partners, self.vector_entries())
        for partition in self.store.partitions:
            partition.cpu.consume(cost)
        # the local frontier moved: pending updates may have become stable
        self._drain_pending()
        self._check_waiters()

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------

    def _on_stabilization(self, sender: str,
                          message: StabilizationMsg) -> None:
        self._remote_info[message.origin_dc] = message.value
        self._drain_pending()
        self._check_waiters()

    #: Process.receive's table; every row resolves its method on ``self``
    #: at call time so subclass overrides (Okapi's ``_on_payload``) win
    _HANDLERS = {
        **Datacenter._HANDLERS,
        BaselinePayload: lambda self, sender, m: self._on_payload(m),
        StabilizationMsg: lambda self, sender, m: self._on_stabilization(
            sender, m),
    }

    # ------------------------------------------------------------------
    # client operations
    # ------------------------------------------------------------------

    def read_cost(self, value_size: int) -> float:
        return self.cost_model.read_cost(value_size,
                                         self.read_metadata_entries())

    def _client_update(self, client: str, message: ClientUpdate) -> None:
        partition = self.store.partition_for(message.key)
        cost = self.cost_model.write_cost(message.value_size,
                                          self.write_metadata_entries())

        def _done() -> None:
            ts = self.make_timestamp(self._stamp_floor(message.label))
            label = Label(LabelType.UPDATE, src=f"{self.dc_name}/g0", ts=ts,
                          target=message.key, origin_dc=self.dc_name)
            stamp = self.make_update_stamp(message.label, ts)
            self._store_update(message.key, label, message.value_size, stamp)
            created_at = self.sim.now
            payload = BaselinePayload(label=label, key=message.key,
                                      value_size=message.value_size,
                                      created_at=created_at, stamp=stamp)
            self._ship_update(payload, message.value_size)
            if self.obs is not None:
                self.obs.on_issue(label, created_at, self.dc_name)
            self.issued(label, created_at)
            self.send(client, UpdateReply(
                client_id=message.client_id, key=message.key,
                label=self.read_stamp(message.key,
                                      StoredValue(label, message.value_size)),
                version=(label.ts, label.src)))

        partition.cpu.submit(cost, _done)

    def _stamp_floor(self, client_stamp: object) -> Optional[float]:
        """Scalar the new update's timestamp must exceed."""
        raise NotImplementedError

    def _store_update(self, key: str, label: Label, value_size: int,
                      stamp: object) -> None:
        self.store.put(key, StoredValue(label=label, value_size=value_size))

    def _client_attach(self, client: str, message: ClientAttach) -> None:
        reply = partial(super()._client_attach, client, message)
        if message.label is None or self.is_stable(message.label):
            reply()
        else:
            self._waiters.append((message.label, reply))

    def _check_waiters(self) -> None:
        if not self._waiters:
            return
        remaining = []
        for stamp, callback in self._waiters:
            if self.is_stable(stamp):
                callback()
            else:
                remaining.append((stamp, callback))
        self._waiters = remaining

    # ------------------------------------------------------------------
    # remote updates
    # ------------------------------------------------------------------

    def _on_payload(self, payload: BaselinePayload) -> None:
        origin = payload.label.origin_dc
        self._pending.setdefault(origin, deque()).append(payload)
        self._drain_pending()

    def _payload_visible(self, payload: BaselinePayload) -> bool:
        """Stability test for a remote update (subclass-specific).

        Dispatch happens smallest-timestamp-first across origin queues and
        visibility is revealed in dispatch order, so a dependency (which
        always carries a smaller timestamp in GentleRain, and is covered by
        the dependency-vector test in Cure) is revealed first."""
        raise NotImplementedError

    def _drain_pending(self) -> None:
        while True:
            candidate: Optional[str] = None
            candidate_ts = float("inf")
            for origin, queue in self._pending.items():
                if not queue:
                    continue
                head = queue[0]
                if head.label.ts < candidate_ts and self._payload_visible(head):
                    candidate = origin
                    candidate_ts = head.label.ts
            if candidate is None:
                return
            payload = self._pending[candidate].popleft()
            self._dispatched_ts[candidate] = payload.label.ts
            self._dispatch(payload)

    def _dispatch(self, payload: BaselinePayload) -> None:
        """Start the storage work; reveal in pipeline order on completion."""
        slot = [payload, False]
        self._pipeline.append(slot)
        partition = self.store.partition_for(payload.key)
        cost = REMOTE_APPLY_FACTOR * self.cost_model.write_cost(
            payload.value_size, self.write_metadata_entries())

        def _done() -> None:
            slot[1] = True
            self._reveal_ready()

        partition.cpu.submit(cost, _done)

    def _reveal_ready(self) -> None:
        while self._pipeline and self._pipeline[0][1]:
            payload, _ = self._pipeline.popleft()
            self._store_update(payload.key, payload.label, payload.value_size,
                               payload.stamp)
            self.updates_applied += 1
            self.revealed(payload.label, payload.created_at,
                          self.VISIBILITY_MODE)
