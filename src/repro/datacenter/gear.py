"""Gears (§4, Alg. 2).

A gear is attached to each storage server (partition).  It intercepts update
requests, generates the update's label (timestamp strictly greater than the
client's causal past), persists the value, ships the payload to remote
replicas through the bulk-data transfer service, and hands the label to the
label sink.  It also mints migration labels (§4.4).  A read (Alg. 2, READ)
adds nothing to the stored version, so reads are the datacenter
skeleton's (:class:`~repro.datacenter.base.Datacenter`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.label import Label, LabelType
from repro.datacenter.messages import RemotePayload
from repro.datacenter.storage import Partition, StoredValue

if TYPE_CHECKING:  # pragma: no cover
    from repro.datacenter.datacenter import SaturnDatacenter

__all__ = ["Gear"]


class Gear:
    """Label generation and update propagation for one partition."""

    def __init__(self, dc: "SaturnDatacenter", partition: Partition) -> None:
        self.dc = dc
        self.partition = partition
        self.gear_id = f"{dc.dc_name}/g{partition.index}"
        self.labels_generated = 0

    def _next_timestamp(self, client_label: Optional[Label]) -> float:
        at_least = client_label.ts if client_label is not None else None
        return self.dc.clock.timestamp(at_least=at_least)

    def update(self, key: str, value_size: int,
               client_label: Optional[Label]) -> Label:
        """Apply a local update (Alg. 2, UPDATE): generate the label, write
        the store, ship payload to replicas, hand the label to the sink."""
        ts = self._next_timestamp(client_label)
        label = Label(LabelType.UPDATE, src=self.gear_id, ts=ts, target=key,
                      origin_dc=self.dc.dc_name)
        self.partition.put(key, StoredValue(label=label, value_size=value_size))
        self.labels_generated += 1
        created_at = self.dc.sim.now
        payload = RemotePayload(label=label, key=key, value_size=value_size,
                                created_at=created_at)
        self.dc.replicate(key, payload, value_size)
        self.dc.sink.add(label)
        self.dc.issued(label, created_at)
        return label

    def migration(self, target_dc: str, client_label: Optional[Label]) -> Label:
        """Mint a migration label greater than the client's causal past
        (Alg. 2, MIGRATION) and hand it to the sink."""
        ts = self._next_timestamp(client_label)
        label = Label(LabelType.MIGRATION, src=self.gear_id, ts=ts,
                      target=target_dc, origin_dc=self.dc.dc_name)
        self.labels_generated += 1
        self.dc.sink.add(label)
        return label
