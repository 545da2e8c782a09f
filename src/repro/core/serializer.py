"""Saturn serializers (§5.3).

A serializer is a node of the metadata tree.  It receives label batches from
attached datacenters (their label sinks) or neighbouring serializers over
FIFO channels and forwards every label, *in arrival order*, towards every
other direction of the tree that contains an interested datacenter.  Because
channels are FIFO and forwarding preserves arrival order, each datacenter
receives a serialization of labels consistent with causality (the
lowest-common-ancestor argument in the paper's footnote 1).

Genuine partial replication falls out of the routing test: a label travels
down an edge only if the subtree behind that edge contains a datacenter in
the label's interest set.

Artificial propagation delays (δij, §5.4) are applied per directed edge
before handing a batch to the network; since the delay of an edge is
constant and the scheduler breaks ties FIFO, order is preserved.

Fault model: serializers are fail-stop and, in the real system, each one is
a chain-replicated group (§6.1).  Here that chain is a latency and liveness
model, not message passing: ``chain_length`` co-located replicas add one
local hop of latency each (``chain_latency``, counted over
``_alive_replicas``), :meth:`crash_replica` shortens the chain, and losing
its last replica (or :meth:`fail`) crashes the whole serializer.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Callable, Deque, Dict, FrozenSet, List, Optional, Tuple

from repro.core.label import Label, LabelType
from repro.core.replication import ReplicationMap
from repro.core.tree import TreeTopology
from repro.datacenter.messages import (LabelBatch, LabelCredit, Ping, Pong,
                                       SerializerBeacon)
from repro.sim.engine import Simulator
from repro.sim.process import Process

__all__ = ["Serializer", "interest_of"]


def interest_of(label: Label, replication: ReplicationMap) -> FrozenSet[str]:
    """Datacenters that must receive *label* (origin excluded).

    * update labels -> replicas of the updated item;
    * migration labels -> the target datacenter;
    * heartbeat / epoch-change labels -> every datacenter (they carry no
      item information, so genuine partial replication is preserved).

    The answer depends only on ``(type, target, origin_dc)``, so results
    are memoized on the replication map (shared by every serializer the
    label traverses; invalidated by ``set_group``).
    """
    cache = replication.interest_cache
    key = (label.type, label.target, label.origin_dc)
    interested = cache.get(key)
    if interested is None:
        if label.type is LabelType.UPDATE:
            interested = replication.replicas(label.target or "")
        elif label.type is LabelType.MIGRATION:
            interested = frozenset({label.target}) if label.target else frozenset()
        else:
            interested = frozenset(replication.datacenters)
        interested = interested - {label.origin_dc}
        cache[key] = interested
    return interested


class Serializer(Process):
    """One node of the serializer tree.

    ``delivery_name(dc)`` maps a datacenter name to the process that should
    receive its label batches (the datacenter process).
    """

    def __init__(self, sim: Simulator, name: str, tree_name: str,
                 topology: TreeTopology, replication: ReplicationMap,
                 delivery_name: Callable[[str], str],
                 peer_process_name: Callable[[str], str],
                 epoch: int = 0,
                 chain_length: int = 1,
                 local_hop_latency: float = 0.3,
                 service_rate: float = 0.0) -> None:
        super().__init__(sim, name)
        self.tree_name = tree_name
        self.topology = topology
        self.replication = replication
        self.delivery_name = delivery_name
        self.peer_process_name = peer_process_name
        self.epoch = epoch
        self.chain_length = max(1, chain_length)
        self.local_hop_latency = local_hop_latency
        self._alive_replicas = self.chain_length
        self.labels_forwarded = 0
        self.labels_delivered = 0
        #: opt-in label-lifecycle tracer (repro.obs.LabelTracer); the only
        #: disabled-mode cost is one None check per routed batch
        self.obs = None
        self.beacon_period = 0.0
        self._beacon_timer = None
        # -- opt-in overload machinery (repro.datacenter.overload) --------
        #: finite ingress service capacity, labels/ms (0 = infinite: route
        #: on arrival, the historical behaviour)
        self.service_rate = service_rate
        self._ingress: Deque[Tuple[LabelBatch, str]] = deque()
        self._servicing = False
        self.peak_ingress_depth = 0
        self.batches_serviced = 0
        self.credits_returned = 0
        #: opt-in metrics registry (repro.obs.MetricsRegistry)
        self.queue_obs = None
        # Routing tables are static per epoch (reconfiguration installs a
        # fresh tree of serializers), so resolve them once instead of on
        # every batch: outgoing directions as (neighbor, peer process,
        # reachable-DC set, edge delay), attached DCs as (dc, delivery
        # process), and the reverse sender-process -> neighbor map.
        routing = topology.routing(tree_name)
        self._out_edges = tuple(
            (neighbor, peer_process_name(neighbor),
             routing.reachable[neighbor], routing.delays[neighbor])
            for neighbor in routing.neighbors)
        self._attached = tuple(
            (dc, delivery_name(dc)) for dc in routing.attached)
        self._sender_to_neighbor = {
            peer: neighbor for neighbor, peer, _, _ in self._out_edges}
        self._peer_of = {neighbor: peer for neighbor, peer, _, _ in self._out_edges}
        self._delay_of = {neighbor: delay for neighbor, _, _, delay in self._out_edges}
        self._delivery_of = dict(self._attached)

    # -- liveness beacons ---------------------------------------------------

    def start_beacons(self, period: float) -> None:
        """Emit a :class:`SerializerBeacon` to each attached sink every
        *period* ms.  Safe to call again after a restart: the previous
        timer chain is cancelled first (a tick that fired while crashed
        stopped rescheduling, but one armed *before* the crash may still
        be pending, and two chains would double the beacon rate)."""
        if self._beacon_timer is not None:
            self._beacon_timer.cancel()
            self._beacon_timer = None
        self.beacon_period = period
        if period > 0 and self._attached:
            self._beacon_timer = self.every(period, self._beacon)

    def _beacon(self) -> None:
        beacon = SerializerBeacon(epoch=self.epoch, tree_name=self.tree_name,
                                  ts=self.sim.now, incarnation=self.restarts)
        for _, delivery in self._attached:
            self.send(delivery, beacon)

    def on_restart(self) -> None:
        """Fail-recover: the chain comes back at full strength with empty
        volatile state (in-flight labels died with the crash; sinks replay
        what the resurrected tree must re-propagate)."""
        self._alive_replicas = self.chain_length
        if self.beacon_period > 0:
            self.start_beacons(self.beacon_period)
            # Announce the new incarnation *now*, not a beacon period from
            # now: the resurrected serializer starts forwarding labels
            # immediately, and the sinks' channels are FIFO, so sending the
            # beacon first guarantees every attached detector learns about
            # the state loss before it can process a single post-restart
            # label.  Without this, a label whose causal dependencies died
            # with the old incarnation slips through during the window
            # between restart and the first periodic beacon.
            self._beacon()

    # -- fault injection ---------------------------------------------------

    @property
    def chain_latency(self) -> float:
        """Extra latency added by passing through the replica chain."""
        return (self._alive_replicas - 1) * self.local_hop_latency

    def crash_replica(self) -> None:
        """Fail-stop one chain replica; the chain shortens (chain repl.)."""
        if self._alive_replicas > 1:
            self._alive_replicas -= 1
        else:
            self.fail()

    def fail(self) -> None:
        """The whole serializer group is gone: drop everything."""
        self.crash()

    # -- label handling ------------------------------------------------------

    def _on_ping(self, sender: str, message: Ping) -> None:
        self.send(message.origin, Pong(seq=message.seq))

    def _on_batch(self, sender: str, message: LabelBatch) -> None:
        came_from = self._neighbor_of(sender)
        if (self.service_rate > 0 and came_from is None
                and not message.replayed):
            # Overload configuration: sink-originated batches pay for a
            # finite service capacity before being routed; the credit goes
            # back to the sink only once its batch is serviced.  Batches
            # from neighbouring serializers route immediately (intra-tree
            # capacity is not the bottleneck under study) and sink replays
            # bypass flow control entirely — failover recovery must not
            # deadlock on credits that died with the old tree.
            self._enqueue_ingress(message, sender)
            return
        self._route_batch(message, came_from, sender)

    _HANDLERS = {Ping: _on_ping, LabelBatch: _on_batch}

    # -- ingress service queue (overload configuration only) -----------------

    def _enqueue_ingress(self, batch: LabelBatch, sender: str) -> None:
        self._ingress.append((batch, sender))
        depth = len(self._ingress)
        if depth > self.peak_ingress_depth:
            self.peak_ingress_depth = depth
        if self.queue_obs is not None:
            self._ingress_gauge.set(depth, self.sim.now)
        if not self._servicing:
            self._servicing = True
            self._service_next()

    @cached_property
    def _ingress_gauge(self):
        # bound at first use, not at attach: a gauge nobody set must not
        # appear in the export
        return self.queue_obs.gauge(f"serializer:{self.tree_name}",
                                    "ingress_depth")

    def _service_next(self) -> None:
        if not self._ingress:
            self._servicing = False
            return
        batch, _ = self._ingress[0]
        self.set_timer(len(batch.labels) / self.service_rate,
                       self._finish_service)

    def _finish_service(self) -> None:
        batch, sender = self._ingress.popleft()
        self.batches_serviced += 1
        self._route_batch(batch, None, sender)
        self.credits_returned += len(batch.labels)
        self.send(sender, LabelCredit(labels=len(batch.labels),
                                      tree_name=self.tree_name))
        if self.queue_obs is not None:
            self._ingress_gauge.set(len(self._ingress), self.sim.now)
        self._service_next()

    def _neighbor_of(self, sender_process: str) -> Optional[str]:
        """Map the sending process back to a tree neighbor, if any."""
        return self._sender_to_neighbor.get(sender_process)

    def _route_batch(self, batch: LabelBatch, came_from: Optional[str],
                     sender_process: str) -> None:
        # Partition the batch per outgoing direction, preserving order.
        per_neighbor: Dict[str, List[Label]] = {}
        per_dc: Dict[str, List[Label]] = {}
        replication = self.replication
        out_edges = self._out_edges
        attached = self._attached
        labels = batch.labels
        obs = self.obs
        if obs is not None:
            now = self.sim.now
            name = self.name
            for label in labels:
                obs.on_serializer_arrive(label, now, name, sender_process)
        for label in labels:
            interested = interest_of(label, replication)
            for neighbor, _, reachable, _ in out_edges:
                if neighbor == came_from:
                    continue
                if interested & reachable:
                    per_neighbor.setdefault(neighbor, []).append(label)
            for dc, delivery in attached:
                if dc in interested and delivery != sender_process:
                    per_dc.setdefault(dc, []).append(label)
        # Forward in first-label insertion order (the pre-optimization send
        # order) so event sequencing — and thus the delivery trace — is
        # unchanged.  When the whole batch goes out one direction (the
        # common full-replication case) the incoming batch object is reused
        # instead of building a new one: routed is a same-order subset, so
        # equal length means identical contents.
        total = len(labels)
        for neighbor, routed in per_neighbor.items():
            if len(routed) == total:
                out = batch
            else:
                out = LabelBatch(tuple(routed), epoch=batch.epoch,
                                 replayed=batch.replayed)
            self._forward(self._peer_of[neighbor], out,
                          extra_delay=self._delay_of[neighbor])
            self.labels_forwarded += len(routed)
            if obs is not None:
                dwell = self._delay_of[neighbor] + self.chain_latency
                peer = self._peer_of[neighbor]
                for label in routed:
                    obs.on_serializer_forward(label, now, name, peer, dwell)
        for dc, routed in per_dc.items():
            if len(routed) == total:
                out = batch
            else:
                out = LabelBatch(tuple(routed), epoch=batch.epoch,
                                 replayed=batch.replayed)
            self._forward(self._delivery_of[dc], out)
            self.labels_delivered += len(routed)
            if obs is not None:
                dwell = self.chain_latency
                to = f"dc:{dc}"
                for label in routed:
                    obs.on_serializer_forward(label, now, name, to, dwell)

    def _forward(self, to: str, batch: LabelBatch, extra_delay: float = 0.0) -> None:
        delay = extra_delay + self.chain_latency
        if delay > 0:
            self.set_timer(delay, lambda: self.send(to, batch))
        else:
            self.send(to, batch)
