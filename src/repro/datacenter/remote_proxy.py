"""Remote proxy (§4.3): applies remote operations locally in causal order.

**One apply pipeline** — a queue of slots, one pump, one finalize, one
install — is fed by one of **two order sources**, chosen per pump by
:meth:`RemoteProxy._in_timestamp_mode`:

* **tree order**: the per-datacenter label serialization provided by
  Saturn — labels in arrival order, each UPDATE once its payload is here
  (*data readiness*).  The fast path;
* **timestamp order**: the total order of the labels piggybacked on bulk
  payloads — payloads wait in a min-heap until *stable* (every other
  datacenter has announced, by payload or bulk heartbeat, a timestamp at
  least as large, so nothing earlier can still arrive on any FIFO bulk
  channel).  The conservative fallback used by the P-configuration, during
  Saturn outages, and during the failure-path reconfiguration (§6.2).

Application is *pipelined*: the proxy dispatches remote operations to the
local storage servers as soon as their turn in the order comes, without
waiting for earlier operations to finish executing — the paper's §4.3
optimization of issuing multiple remote operations in parallel to the local
datacenter.  What is strictly ordered is the *visibility point*: an update
only becomes visible (installed in the store, counted in watermarks,
reported to metrics) once every operation before it in the order is
visible.  Setting ``parallel_concurrent=False`` shrinks the dispatch window
to one, which serializes execution completely (used as an ablation).

The order source only changes while the pipeline is empty (epoch adoption)
or as it is abandoned (:meth:`enter_fallback`), so no slot ever moves.  Two
rules make the way back to the tree safe and live: a failure-path epoch is
adopted at its first *fresh* label that is stable in timestamp order (sink
replays are arbitrarily old, and the tree gives no order between a replayed
label and a fresh one); and an UPDATE label at or below its origin's
applied watermark counts as applied, whoever applied it and whether or not
its dedup entry was pruned since.

The proxy also maintains the per-origin applied watermarks that back the
frontend's attach conditions (Alg. 1), and implements both epoch-change
protocols of §6.2.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.core.label import Label, LabelType
from repro.datacenter.messages import BulkHeartbeat, LabelBatch, RemotePayload
from repro.datacenter.storage import StoredValue

if TYPE_CHECKING:  # pragma: no cover
    from repro.datacenter.datacenter import SaturnDatacenter

__all__ = ["RemoteProxy"]

LabelKey = Tuple[float, str]

#: maximum remote operations dispatched to storage servers at once
DISPATCH_WINDOW = 64

#: how many applications between prunes of the dedup set
APPLIED_PRUNE_INTERVAL = 512


_NEG_INF = float("-inf")


class _Slot:
    """One position in the in-order visibility pipeline: made when its
    label's turn comes, it takes the next position and starts the storage
    work, if any."""

    __slots__ = ("proxy", "label", "payload", "done")

    def __init__(self, proxy: "RemoteProxy", label: Label,
                 payload: Optional[RemotePayload]) -> None:
        self.proxy = proxy
        self.label = label
        self.payload = payload
        self.done = payload is None
        proxy._dispatch.append(self)
        if payload is not None:
            dc = proxy.dc
            dc.store.partition_for(payload.key).cpu.submit(
                dc.remote_apply_cost(payload.value_size), self.complete)

    def complete(self) -> None:
        """The storage work is done (the CPU's completion callback).  An
        orphan of enter_fallback pumps the other order source: harmless,
        every state change has already pumped."""
        self.done = True
        self.proxy._pump()


class RemoteProxy:
    """Per-datacenter application of remote updates in causal order."""

    def __init__(self, dc: "SaturnDatacenter", mode: str = "saturn",
                 parallel_concurrent: bool = True) -> None:
        if mode not in ("saturn", "timestamp", "eventual"):
            raise ValueError(f"unknown proxy mode {mode!r}")
        self.dc = dc
        #: every other datacenter: the sources of remote updates
        self._others = tuple(name for name in dc.replication.datacenters
                             if name != dc.dc_name)
        self.mode = mode
        self.parallel_concurrent = parallel_concurrent
        self.window = DISPATCH_WINDOW if parallel_concurrent else 1
        self.current_epoch = 0

        # tree order source: labels in arrival order, payloads by key
        self._queue: Deque[Label] = deque()
        self._epoch_buffers: Dict[int, List[Label]] = {}
        self._pending_payloads: Dict[LabelKey, RemotePayload] = {}
        # timestamp order source: payloads by (ts, src), the applied cut
        self._ts_heap: List[Tuple[float, str, RemotePayload]] = []
        self._ts_watermark = _NEG_INF

        # the pipeline both feed, and what it has made visible
        self._dispatch: Deque[_Slot] = deque()
        self._applied: Set[LabelKey] = set()
        self.applied_ts: Dict[str, float] = {}
        self.seen_bulk_ts: Dict[str, float] = {}
        self._waiters: List[Tuple[Callable[[], bool], Callable[[], None]]] = []

        # epoch-change state
        self._epoch_marks: Dict[int, Set[str]] = {}
        #: buffered epoch -> ts of its first *fresh* (non-replayed) label
        self._fresh_ts: Dict[int, float] = {}
        self._transition_target: Optional[int] = None
        self._transition_started_at: Optional[float] = None
        self._emergency = False
        self.reconfiguration_times: List[float] = []
        #: fast-path transitions stuck longer than this escalate to the
        #: failure path (0 disables) — covers C1 dying mid-reconfiguration,
        #: when the epoch-change labels it should carry are lost
        self.transition_timeout = 0.0
        self.transitions_escalated = 0

        # statistics
        self.labels_processed = 0
        self._prune_countdown = APPLIED_PRUNE_INTERVAL
        #: opt-in label-lifecycle tracer (repro.obs)
        self.obs = None

    @property
    def updates_applied(self) -> int:
        """Remote updates installed; the count is the datacenter's."""
        return self.dc.updates_applied

    # ------------------------------------------------------------------
    # event entry points (called by the datacenter process)
    # ------------------------------------------------------------------

    def on_labels(self, batch: LabelBatch) -> None:
        """A label batch delivered by Saturn."""
        if self.mode == "eventual":
            disposition = "ignored-eventual"
        elif batch.epoch > self.current_epoch:
            disposition = "buffered-future-epoch"
        elif batch.epoch < self.current_epoch:
            disposition = "stale-dropped"
        elif self._emergency:
            # the current tree was abandoned: its serialization can no
            # longer be trusted (a resurrected serializer forwards labels
            # whose causal past died with it).  Correctness is owned by
            # the timestamp fallback and the new epoch's sink replay now,
            # so late batches from the old tree are dropped instead of
            # queued behind the transition.
            disposition = "emergency-dropped"
        else:
            disposition = "queued"
        obs = self.obs
        if obs is not None:
            now = self.dc.sim.now
            dc_name = self.dc.dc_name
            for label in batch.labels:
                obs.on_deliver(label, now, dc_name, batch.epoch, disposition)
        if disposition == "queued":
            self._queue.extend(batch.labels)
            self._pump()
        elif disposition == "buffered-future-epoch":
            self._epoch_buffers.setdefault(batch.epoch, []).extend(batch.labels)
            if not batch.replayed and batch.labels:
                self._fresh_ts.setdefault(batch.epoch, batch.labels[0].ts)
            self._maybe_finish_emergency()

    def on_payload(self, payload: RemotePayload) -> None:
        """An update payload delivered by the bulk-data transfer service."""
        label = payload.label
        seen = self.seen_bulk_ts
        if label.ts > seen.get(label.origin_dc, _NEG_INF):
            seen[label.origin_dc] = label.ts
        if self.mode == "eventual":
            self._apply_now(payload)
            return
        if self.mode == "timestamp" or self._emergency:
            heapq.heappush(self._ts_heap, (label.ts, label.src, payload))
        else:
            self._pending_payloads[(label.ts, label.src)] = payload
        self._pump()

    def on_heartbeat(self, heartbeat: BulkHeartbeat) -> None:
        """A bulk-channel heartbeat advancing an origin's stability cut."""
        self.seen_bulk_ts[heartbeat.origin_dc] = max(
            self.seen_bulk_ts.get(heartbeat.origin_dc, _NEG_INF),
            heartbeat.ts)
        if self._in_timestamp_mode():
            self._pump()

    # ------------------------------------------------------------------
    # attach conditions (used by the frontend, Alg. 1)
    # ------------------------------------------------------------------

    def consumes_label_order(self, epoch: int) -> bool:
        """Will a label batch of *epoch* enter the saturn-order pipeline —
        now, or at adoption time for a buffered future epoch?

        Used by the runtime oracle (:class:`repro.analysis.runtime.HazardMonitor`)
        to scope its delivery-order/visibility-order cross-check: labels the
        proxy ignores (abandoned-tree remnants while in the timestamp
        fallback, anything in eventual mode) impose no ordering obligation —
        their updates become visible through the timestamp total order,
        which the causal-order check validates directly.
        """
        if self.mode == "eventual":
            return False
        if epoch > self.current_epoch:
            return True
        return epoch == self.current_epoch and not self._in_timestamp_mode()

    def migration_processed(self, label: Label) -> bool:
        """Finalizing a migration label raises its origin's watermark; in
        timestamp order only entries at or below the stability cut are
        applied, so there too the watermark proves the causal past is in."""
        return label.ts <= self.applied_ts.get(label.origin_dc, _NEG_INF)

    def update_stable(self, label: Label) -> bool:
        """Every remote datacenter has applied something >= label.ts."""
        if self._in_timestamp_mode():
            return self._ts_watermark >= label.ts
        return all(self.applied_ts.get(dc, _NEG_INF) >= label.ts
                   for dc in self._others)

    def wait_for(self, predicate: Callable[[], bool],
                 callback: Callable[[], None]) -> None:
        """Run *callback* once *predicate* holds (checked on state changes)."""
        if predicate():
            callback()
        else:
            self._waiters.append((predicate, callback))

    def _check_waiters(self) -> None:
        if not self._waiters:
            return
        still_waiting = []
        for predicate, callback in self._waiters:
            if predicate():
                callback()
            else:
                still_waiting.append((predicate, callback))
        self._waiters = still_waiting

    # ------------------------------------------------------------------
    # the apply pipeline: admit -> dispatch -> finalize -> install
    # ------------------------------------------------------------------

    def _in_timestamp_mode(self) -> bool:
        """Timestamp order (True) or tree order; inlined on hot paths."""
        return self.mode == "timestamp" or self._emergency

    def _pump(self) -> None:
        """Admit what the current order source allows into the pipeline,
        then finalize (make visible) its completed prefix.

        Once, in that order: a pump that makes nothing visible may still
        admit what an earlier finalize made room for.  Only a tree-order
        pump with no queue and no completed head has nothing to do."""
        dispatch = self._dispatch
        ts_order = self.mode == "timestamp" or self._emergency
        if ts_order:
            cut = self._stability_cut()
            self._admit_stable(cut)
            via = "ts-drain"
        elif self._queue:
            self._admit_tree()
            via = "saturn"
        elif dispatch and dispatch[0].done:
            via = "saturn"
        else:
            return
        progressed = False
        while dispatch and dispatch[0].done:
            self._finalize(dispatch.popleft(), via)
            progressed = True
        # the stability watermark advances once everything below the cut
        # has been applied — and before any waiter looks at it
        if (ts_order and not dispatch
                and (not self._ts_heap or self._ts_heap[0][0] > cut)):
            progressed |= self._advance_ts_watermark(cut)
        if progressed:
            self._check_waiters()
            if self._transition_target is not None:
                self._maybe_finish_transition()
                self._maybe_finish_emergency()

    def _admit_tree(self) -> None:
        """Tree order: labels in arrival order, each UPDATE once its
        payload is here."""
        queue = self._queue
        dispatch = self._dispatch
        window = self.window
        while queue and len(dispatch) < window:
            label = queue[0]
            payload = None
            if label.type is LabelType.UPDATE:
                key = (label.ts, label.src)
                if key not in self._applied:
                    payload = self._pending_payloads.pop(key, None)
                    # an UPDATE at or below its origin's applied watermark
                    # was already applied (per-origin streams are FIFO and
                    # ts-ordered), but its dedup entry may have been
                    # pruned: without this check the label would
                    # head-of-line block forever waiting for a payload
                    # that was consumed long ago
                    if payload is None and label.ts > self.applied_ts.get(
                            label.origin_dc, _NEG_INF):
                        break  # data readiness: wait for the bulk transfer
            # heartbeat / migration / epoch-change / duplicate update carry
            # no payload: no storage work, done as soon as their turn comes
            queue.popleft()
            _Slot(self, label, payload)

    def _admit_stable(self, cut: float) -> None:
        """Timestamp order: buffered payloads at or below the stability
        cut, smallest first."""
        heap = self._ts_heap
        while heap and heap[0][0] <= cut and len(self._dispatch) < self.window:
            ts, src, payload = heapq.heappop(heap)
            if (ts, src) not in self._applied:
                _Slot(self, payload.label, payload)

    def _finalize(self, slot: _Slot, via: str) -> None:
        """The slot's turn has come and its work is done: make it count."""
        label = slot.label
        if via == "saturn":
            self.labels_processed += 1
        if slot.payload is not None:
            self._applied.add((label.ts, label.src))
            self._install(slot.payload, via)
            return
        if label.type is LabelType.EPOCH_CHANGE:
            self._record_epoch_mark(label)
        if self.obs is not None:
            self.obs.on_finalized(label, self.dc.sim.now, self.dc.dc_name)
        if label.type is not LabelType.EPOCH_CHANGE:
            # epoch marks do not advance origin watermarks
            self._advance_watermark(label)

    def _install(self, payload: RemotePayload, via: str) -> None:
        """The visibility point of one remote update."""
        label = payload.label
        dc = self.dc
        dc.store.partition_for(payload.key).put(
            payload.key, StoredValue(label, payload.value_size))
        dc.revealed(label, payload.created_at, via)
        self._advance_watermark(label)

    def _advance_watermark(self, label: Label) -> None:
        origin = label.origin_dc
        if label.ts > self.applied_ts.get(origin, _NEG_INF):
            self.applied_ts[origin] = label.ts
        self._prune_countdown -= 1
        if self._prune_countdown <= 0:
            self._prune_countdown = APPLIED_PRUNE_INTERVAL
            self._prune_applied()

    def _prune_applied(self) -> None:
        """Drop dedup entries below every origin's applied watermark (the
        watermark itself answers for those), so the set stays bounded on
        long runs.  The floor is over the origins that have a watermark:
        only they have entries (every add is followed by a watermark
        advance), and under partial replication some origin may never
        send this datacenter a label."""
        if not self.applied_ts:
            return
        floor = min(self.applied_ts.values())
        self._applied = {key for key in self._applied if key[0] >= floor}

    def _stability_cut(self) -> float:
        """Largest ts below which no datacenter can still send anything."""
        return min((self.seen_bulk_ts.get(dc, _NEG_INF) for dc in self._others),
                   default=float("inf"))

    def _advance_ts_watermark(self, cut: float) -> bool:
        """Everything at or below *cut* is applied; True if that is news."""
        if cut == float("inf") or cut <= self._ts_watermark:
            return False
        self._ts_watermark = cut
        for dc in self._others:
            if cut > self.applied_ts.get(dc, _NEG_INF):
                self.applied_ts[dc] = cut
        return True

    # ------------------------------------------------------------------
    # fault handling: Saturn outage -> timestamp fallback
    # ------------------------------------------------------------------

    def enter_fallback(self) -> None:
        """Saturn outage detected: apply by timestamp order from now on."""
        if self._in_timestamp_mode():
            return
        self._emergency = True
        if self.obs is not None:
            self.obs.annotate(self.dc.sim.now, "enter-fallback",
                              self.dc.dc_name)
        self._queue.clear()
        # the pipeline is abandoned, not migrated: its slots are orphaned
        # and their payloads re-admitted in timestamp order — also those
        # whose storage work is done, nothing is visible before its turn
        for slot in self._dispatch:
            if slot.payload is not None:
                heapq.heappush(self._ts_heap, (slot.label.ts, slot.label.src,
                                               slot.payload))
        self._dispatch.clear()
        for key, payload in sorted(self._pending_payloads.items()):
            heapq.heappush(self._ts_heap, (key[0], key[1], payload))
        self._pending_payloads.clear()
        self._pump()

    # ------------------------------------------------------------------
    # epoch-change reconfiguration (§6.2)
    # ------------------------------------------------------------------

    def begin_transition(self, new_epoch: int, emergency: bool = False) -> None:
        """The local datacenter switched its sink to the C2 tree."""
        self._transition_target = new_epoch
        self._transition_started_at = self.dc.sim.now
        if self.obs is not None:
            self.obs.annotate(self.dc.sim.now, "begin-transition",
                              self.dc.dc_name, epoch=new_epoch,
                              emergency=emergency)
        if emergency:
            self.enter_fallback()
        elif self.transition_timeout > 0:
            self.dc.set_timer(self.transition_timeout,
                              lambda: self._escalate_transition(new_epoch))
        self._maybe_finish_transition()
        self._maybe_finish_emergency()

    def _escalate_transition(self, epoch: int) -> None:
        """Fast path timed out (a peer's epoch-change label is missing —
        C1 broke mid-switch): finish through the failure path instead."""
        if (self._transition_target != epoch or self._emergency
                or self.current_epoch == epoch):
            return
        self.transitions_escalated += 1
        self.enter_fallback()
        self._maybe_finish_emergency()

    def _record_epoch_mark(self, label: Label) -> None:
        epoch = int(label.target or 0)
        self._epoch_marks.setdefault(epoch, set()).add(label.origin_dc)
        self._maybe_finish_transition()

    def _maybe_finish_transition(self) -> None:
        """Fast-path switch: every datacenter's epoch-change label was
        processed through C1 and all C1 labels have been applied."""
        if self._transition_target is None or self._emergency:
            return
        target = self._transition_target
        marks = self._epoch_marks.get(target, set())
        if not marks.issuperset(self._others) or self._dispatch or self._queue:
            return
        self._adopt_epoch(target)

    def _maybe_finish_emergency(self) -> None:
        """Failure-path switch: start applying C2 labels once the first
        *fresh* C2 label is stable in timestamp order.  A replayed label
        proves nothing: peers saw its successors through the timestamp
        fallback, and the tree gives no order between it and a fresh one."""
        if self._transition_target is None or not self._emergency:
            return
        fresh_ts = self._fresh_ts.get(self._transition_target)
        if (fresh_ts is None or self._ts_watermark < fresh_ts
                or self._dispatch):
            return
        buffered = self._epoch_buffers[self._transition_target]
        # unapplied buffered payloads move back to the Saturn path on
        # adoption, so each needs its label to eventually arrive through
        # C2: hold the switch while any of them predates everything C2
        # has delivered from its origin (it would be stranded forever;
        # staying in ts mode applies it once it stabilizes instead)
        if self._ts_heap:
            first_by_origin: Dict[str, float] = {}
            for label in buffered:
                origin = label.origin_dc
                if label.ts < first_by_origin.get(origin, float("inf")):
                    first_by_origin[origin] = label.ts
            for ts, src, payload in self._ts_heap:
                if (ts, src) not in self._applied and ts < first_by_origin.get(
                        payload.label.origin_dc, float("inf")):
                    return
        self._emergency = False
        self._adopt_epoch(self._transition_target)

    def _adopt_epoch(self, epoch: int) -> None:
        self.current_epoch = epoch
        self._transition_target = None
        if self.obs is not None:
            self.obs.annotate(self.dc.sim.now, "epoch-adopt",
                              self.dc.dc_name, epoch=epoch)
        self._fresh_ts.pop(epoch, None)
        self._queue.extend(self._epoch_buffers.pop(epoch, []))
        # payloads that were parked for timestamp-order application but
        # never became stable move back to the Saturn path, otherwise the
        # new tree's labels would head-of-line block on them forever
        while self._ts_heap:
            ts, src, payload = heapq.heappop(self._ts_heap)
            if (ts, src) not in self._applied:
                self._pending_payloads[(ts, src)] = payload
        if self._transition_started_at is not None:
            self.reconfiguration_times.append(
                self.dc.sim.now - self._transition_started_at)
            self._transition_started_at = None
        self._pump()

    # ------------------------------------------------------------------
    # eventual mode
    # ------------------------------------------------------------------

    def _apply_now(self, payload: RemotePayload) -> None:
        cost = self.dc.remote_apply_cost(payload.value_size)
        partition = self.dc.store.partition_for(payload.key)

        def _done() -> None:
            self._install(payload, "eventual")
            self._check_waiters()

        partition.cpu.submit(cost, _done)
