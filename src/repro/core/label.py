"""Saturn labels (§3 of the paper).

A label is the only metadata Saturn manages: a constant-size tuple
``<type, src, ts, target>`` where

* ``type`` — ``update`` or ``migration`` (we also use internal
  ``heartbeat`` and ``epoch_change`` labels; heartbeats drive the
  timestamp-order fallback and epoch-change labels drive online
  reconfiguration, §6.2);
* ``src`` — unique id of the generating gear;
* ``ts`` — a single scalar timestamp;
* ``target`` — the updated key (update labels) or the destination
  datacenter (migration labels).

Labels are *unique* (by ``(ts, src)``) and *totally ordered*: ``la < lb``
iff ``la.ts < lb.ts or (la.ts == lb.ts and la.src < lb.src)``.  The total
order respects causality (like Lamport clocks the converse does not hold:
``la < lb`` does not imply ``a -> b``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import total_ordering
from typing import Optional, Tuple

__all__ = ["LabelType", "Label", "label_max"]


class LabelType(enum.Enum):
    """Kinds of labels travelling through Saturn."""

    UPDATE = "update"
    MIGRATION = "migration"
    HEARTBEAT = "heartbeat"
    EPOCH_CHANGE = "epoch_change"


@total_ordering
@dataclass(frozen=True, slots=True)
class Label:
    """An immutable, totally ordered Saturn label."""

    type: LabelType
    src: str
    ts: float
    target: Optional[str] = None
    #: origin datacenter (derived metadata used for routing/fallback; the
    #: paper encodes this in ``src`` — gear ids embed their datacenter).
    origin_dc: str = ""

    def sort_key(self) -> Tuple[float, str]:
        return (self.ts, self.src)

    def __lt__(self, other: "Label") -> bool:
        if not isinstance(other, Label):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Label):
            return NotImplemented
        return self.sort_key() == other.sort_key()

    def __hash__(self) -> int:
        return hash((self.ts, self.src))

    def is_update(self) -> bool:
        return self.type is LabelType.UPDATE

    def is_migration(self) -> bool:
        return self.type is LabelType.MIGRATION

    def __repr__(self) -> str:
        return (f"Label({self.type.value}, src={self.src}, ts={self.ts:.4f}, "
                f"target={self.target})")


def label_max(a: Optional[Label], b: Optional[Label]) -> Optional[Label]:
    """Greater of two labels, treating ``None`` as minus infinity.

    Client libraries use this to fold newly observed labels into the
    client's causal past (``Label_c``).
    """
    if a is None:
        return b
    if b is None:
        return a
    return a if a >= b else b
