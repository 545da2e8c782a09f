"""Wire messages exchanged between clients, datacenters, and Saturn.

These are small frozen dataclasses: the simulator passes them by reference,
and ``payload_size`` fields let the network account for bytes without
materializing actual values.

Everything here is **wire-safe plain data**: frozen, slotted, and composed
only of scalars, tuples, and the :class:`~repro.core.label.Label` value
type, so a message serializes byte-for-byte on the real transport.
``repro.net.codec.register()`` checks exactly that for every class at
import, and each class is a key of some actor's ``_HANDLERS`` table (a
test holds the two sets equal).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.core.label import Label

__all__ = [
    "ClientAttach", "ClientRead", "ClientUpdate", "ClientMigrate",
    "AttachOk", "ReadReply", "UpdateReply", "MigrateReply",
    "RemotePayload", "BulkHeartbeat", "LabelBatch", "StabilizationMsg",
    "Ping", "Pong", "SerializerBeacon", "LabelCredit", "Stamp",
]

#: A client's causal past as carried on the wire.  The concrete shape is
#: system-specific: Saturn ships its greatest :class:`Label`, GentleRain a
#: scalar timestamp, Cure a sorted ``(dc, ts)`` tuple vector.  The
#: explicit-dependency baseline extends this union with its own frozen
#: plain-data ``DepContext`` (repro.baselines.explicit) — core cannot name
#: it here without importing upward, but it obeys the same wire rules.
Stamp = Union[None, Label, float, Tuple[Tuple[str, float], ...]]


# -- client -> datacenter ----------------------------------------------------

@dataclass(frozen=True, slots=True)
class ClientAttach:
    client_id: str
    label: Stamp


@dataclass(frozen=True, slots=True)
class ClientRead:
    client_id: str
    key: str


@dataclass(frozen=True, slots=True)
class ClientUpdate:
    client_id: str
    key: str
    value_size: int
    label: Stamp


@dataclass(frozen=True, slots=True)
class ClientMigrate:
    client_id: str
    target_dc: str
    label: Stamp


# -- datacenter -> client ----------------------------------------------------

@dataclass(frozen=True, slots=True)
class AttachOk:
    client_id: str


@dataclass(frozen=True, slots=True)
class ReadReply:
    client_id: str
    key: str
    label: Stamp
    value_size: int
    #: (ts, src) identity of the returned version (for the offline checker)
    version: Optional[Tuple[float, str]] = None


@dataclass(frozen=True, slots=True)
class UpdateReply:
    client_id: str
    key: str
    label: Stamp
    #: (ts, src) identity of the written version (for the offline checker)
    version: Optional[Tuple[float, str]] = None
    #: True when admission control refused the update before it reached
    #: storage (label/version are None); see repro.datacenter.overload
    rejected: bool = False


@dataclass(frozen=True, slots=True)
class MigrateReply:
    client_id: str
    #: migration label in Saturn; None in the stabilization baselines,
    #: which re-attach at the target with the client's current stamp
    label: Stamp


# -- datacenter <-> datacenter (bulk-data transfer) ---------------------------

@dataclass(frozen=True, slots=True)
class RemotePayload:
    """An update's payload shipped by the bulk-data transfer service.

    The label is piggybacked (the paper relies on this for the
    timestamp-order fallback) together with the true creation time used for
    visibility-latency measurement.
    """

    label: Label
    key: str
    value_size: int
    created_at: float


@dataclass(frozen=True, slots=True)
class BulkHeartbeat:
    """Periodic per-origin timestamp announcement on the bulk channel.

    Drives timestamp-order stability (fallback mode, P-configuration, and
    the conservative attach path for remote update labels)."""

    origin_dc: str
    ts: float


# -- datacenter <-> Saturn ----------------------------------------------------

@dataclass(frozen=True, slots=True)
class LabelBatch:
    """A causally ordered batch of labels travelling through Saturn."""

    labels: Tuple[Label, ...]
    #: id of the tree configuration that carried the batch (epoch changes)
    epoch: int = 0
    #: True when the batch is a sink replay after an emergency epoch change:
    #: it may repeat labels the receiver already processed, and it does not
    #: count as the new epoch's first fresh label (see
    #: RemoteProxy._maybe_finish_emergency)
    replayed: bool = False


@dataclass(frozen=True, slots=True)
class LabelCredit:
    """Flow-control grant from an ingress serializer to a label sink.

    Under the overload configuration (:mod:`repro.datacenter.overload`)
    a sink may only have a bounded number of labels outstanding at its
    ingress serializer; the serializer returns the credit as it services
    each batch.  A sink with no credits defers its periodic flush — the
    buffered labels coalesce into a larger batch — which is how queue
    growth inside Saturn propagates back to admission control at the
    frontends without ever dropping a label."""

    labels: int
    tree_name: str = ""


# -- stabilization (GentleRain / Cure baselines) -------------------------------

@dataclass(frozen=True, slots=True)
class StabilizationMsg:
    """Periodic metadata exchange between stabilization managers.

    Both baselines broadcast a scalar — the origin's local clock floor
    (partition LST).  Cure's stable *vector* is never shipped: receivers
    assemble it from these per-origin scalars (see
    ``StabilizedDatacenter._remote_info``)."""

    origin_dc: str
    value: Optional[float] = None


# -- liveness probes (Saturn outage detection) ---------------------------------

@dataclass(frozen=True, slots=True)
class Ping:
    seq: int
    origin: str


@dataclass(frozen=True, slots=True)
class Pong:
    seq: int


@dataclass(frozen=True, slots=True)
class SerializerBeacon:
    """Periodic liveness beacon from a serializer to its attached sinks.

    Push-style complement to Ping/Pong: each datacenter's failure detector
    expects a beacon every ``beacon_period`` ms and raises suspicion after
    ``beacon_timeout`` ms of silence (see repro.datacenter.failover).

    ``incarnation`` counts fail-recover cycles of the sending serializer.
    A beacon with a higher incarnation than previously seen proves the
    tree crashed and lost its volatile state — *liveness* evidence is not
    *continuity* evidence, and the detector must force the recovery path
    even if the beacon arrives before the silence was ever noticed."""

    epoch: int
    tree_name: str
    ts: float
    incarnation: int = 0
