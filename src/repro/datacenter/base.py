"""The datacenter skeleton every protocol shares (§4, §7.3).

The evaluation compares systems under one unchanged client library and
one storage layer, so that they differ only in their metadata and their
stabilization.  :class:`Datacenter` is that shared part:

* identity (``dc_name``, ``site``), ``replication``, ``cost_model``,
  ``clock`` and one :class:`~repro.datacenter.storage.PartitionedStore`;
* the recorder slots ``metrics``, ``execution_log`` and ``obs``;
* the ``_HANDLERS`` rows of the four client messages, each resolving its
  target on ``self`` at call time, so a family's override wins;
* the read path, priced by :meth:`read_cost` and stamped by
  :meth:`read_stamp`;
* the default attach and migrate replies (nothing to wait for);
* :meth:`replicate` (to the other replicas of a key) and :meth:`broadcast`
  (to every other datacenter);
* :meth:`issued` and :meth:`revealed`, the only places an origin update
  and a remote update's visibility reach the recorders (and the one
  ``updates_applied`` count).

A family derives from it and overrides what differs: ``_client_update``
always; ``_client_attach`` / ``_client_migrate`` when they wait on
something; ``read_cost`` / ``read_stamp`` when its metadata has a price or
a shape other than the stored label.  The skeleton never asks which
family it serves.
"""

from __future__ import annotations

from typing import Any

from repro.core.label import Label
from repro.core.naming import dc_process_name
from repro.core.replication import ReplicationMap
from repro.datacenter.messages import (AttachOk, ClientAttach, ClientMigrate,
                                       ClientRead, ClientUpdate, MigrateReply,
                                       ReadReply)
from repro.datacenter.storage import PartitionedStore, StoredValue
from repro.sim.clock import PhysicalClock
from repro.sim.cpu import CostModel
from repro.sim.engine import Simulator
from repro.sim.process import Process

__all__ = ["Datacenter"]


class Datacenter(Process):
    """One datacenter of any protocol (see the module docstring)."""

    def __init__(self, sim: Simulator, name: str, site: str,
                 replication: ReplicationMap, cost_model: CostModel,
                 clock: PhysicalClock, num_partitions: int = 2,
                 metrics=None, execution_log=None) -> None:
        super().__init__(sim, dc_process_name(name))
        self.dc_name = name
        self.site = site
        self.replication = replication
        self.cost_model = cost_model
        self.clock = clock
        self.store = PartitionedStore(sim, num_partitions)
        self.metrics = metrics
        self.execution_log = execution_log
        #: optional LabelTracer (repro.obs) — observes transitions only,
        #: never schedules events
        self.obs = None
        #: remote updates made visible here (counted by :meth:`revealed`)
        self.updates_applied = 0

    def start(self) -> None:
        """Arm periodic machinery; call after network wiring."""

    #: Process.receive's table; a family extends it with
    #: ``{**Datacenter._HANDLERS, ...}``
    _HANDLERS = {
        ClientRead: lambda self, sender, m: self._client_read(sender, m),
        ClientUpdate: lambda self, sender, m: self._client_update(sender, m),
        ClientAttach: lambda self, sender, m: self._client_attach(sender, m),
        ClientMigrate: lambda self, sender, m: self._client_migrate(
            sender, m),
    }

    # ------------------------------------------------------------------
    # client operations
    # ------------------------------------------------------------------

    def read_cost(self, value_size: int) -> float:
        """CPU cost of serving a read (default: scalar metadata)."""
        return self.cost_model.read_cost(value_size)

    def read_stamp(self, key: str, stored: StoredValue) -> Any:
        """Causal stamp a read reply hands the client (default: the label)."""
        return stored.label

    def _client_read(self, client: str, message: ClientRead) -> None:
        partition = self.store.partition_for(message.key)
        stored_now = partition.get(message.key)
        cost = self.read_cost(stored_now.value_size if stored_now else 0)

        def _done() -> None:
            stored = partition.get(message.key)
            if stored is None:
                self.send(client, ReadReply(client_id=message.client_id,
                                            key=message.key, label=None,
                                            value_size=0))
            else:
                self.send(client, ReadReply(
                    client_id=message.client_id, key=message.key,
                    label=self.read_stamp(message.key, stored),
                    value_size=stored.value_size,
                    version=(stored.label.ts, stored.label.src)))

        partition.cpu.submit(cost, _done)

    def _client_update(self, client: str, message: ClientUpdate) -> None:
        raise NotImplementedError

    def _client_attach(self, client: str, message: ClientAttach) -> None:
        self.send(client, AttachOk(client_id=message.client_id))

    def _client_migrate(self, client: str, message: ClientMigrate) -> None:
        # no migration label: the client re-attaches at the target with
        # its current stamp
        self.send(client, MigrateReply(client_id=message.client_id,
                                       label=None))

    # ------------------------------------------------------------------
    # outbound traffic
    # ------------------------------------------------------------------

    def replicate(self, key: str, message: Any, size_bytes: int) -> int:
        """Send *message* on the bulk channel to every other replica of
        *key*, in name order; returns how many."""
        replicas = 0
        for replica in sorted(self.replication.replicas(key)):
            if replica != self.dc_name:
                self.network.send(self.name, dc_process_name(replica),
                                  message, size_bytes=size_bytes)
                replicas += 1
        return replicas

    def broadcast(self, message: Any) -> int:
        """Send *message* to every other datacenter; returns how many."""
        peers = 0
        for dc in self.replication.datacenters:
            if dc != self.dc_name:
                self.send(dc_process_name(dc), message)
                peers += 1
        return peers

    # ------------------------------------------------------------------
    # recorders
    # ------------------------------------------------------------------

    def issued(self, label: Label, created_at: float) -> None:
        """An update originated here (its version is installed)."""
        if self.execution_log is not None:
            self.execution_log.record_update(label, self.dc_name, created_at)

    def revealed(self, label: Label, created_at: float, mode: str) -> None:
        """A remote update became visible here; *mode* is the obs
        ``visible`` tag (how it got here: see repro.obs.trace)."""
        self.updates_applied += 1
        now = self.sim.now
        if self.metrics is not None:
            self.metrics.record_visibility(label.origin_dc, self.dc_name,
                                           now - created_at)
        if self.execution_log is not None:
            self.execution_log.record_visible(label, self.dc_name, now)
        if self.obs is not None:
            self.obs.on_visible(label, now, self.dc_name, mode)
