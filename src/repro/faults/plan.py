"""Fault plans: scripts of scheduled fault actions.

A :class:`FaultPlan` is an ordered list of :class:`FaultAction` entries.
Each action fires at a fixed simulated time (``at``) or at one of several
candidate times (``at_choices``) left open for the model checker, which
resolves the choice through the schedule controller — fault timing then
becomes part of the recorded, shrinkable decision list.

Plans are Python data: the fault scenarios of
:data:`repro.analysis.mc.scenario.SCENARIOS` and the chaos tests build
them in code, and :class:`~repro.faults.injector.FaultInjector` applies
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = ["FaultAction", "FaultPlan", "KINDS"]

#: action kind -> required argument names
KINDS: Dict[str, Tuple[str, ...]] = {
    "crash-serializer": ("tree",),
    "restart-serializer": ("tree",),
    "crash-replica": ("tree",),
    "crash-tree": (),
    "restart-tree": (),
    "isolate": ("process",),
    "rejoin": ("process",),
    "partition-link": ("src", "dst"),
    "heal-link": ("src", "dst"),
    "delay-spike": ("src", "dst", "extra"),
    "clear-delay": ("src", "dst"),
    "clock-skew": ("dc", "skew"),
    "reconfigure": (),
}


@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault.

    Exactly one of ``at`` (fixed simulated time, ms) and ``at_choices``
    (candidate times for the model checker; strictly ascending, the first
    is the default) must be given.  ``args`` are kind-specific:

    ==================  =====================================================
    kind                args
    ==================  =====================================================
    crash-serializer    tree, [epoch]          fail-stop one serializer group
    restart-serializer  tree, [epoch]          fail-recover it
    crash-replica       tree, [epoch]          shorten its replica chain
    crash-tree          [epoch]                fail every serializer
    restart-tree        [epoch]                restart every serializer
    isolate             process                cut a process off entirely
    rejoin              process                undo isolate (held traffic
                                               is then released in order)
    partition-link      src, dst, [symmetric]  sever one link (reliable
                                               channel: traffic is held)
    heal-link           src, dst, [symmetric]  undo partition-link
    delay-spike         src, dst, extra,       add extra ms to one link
                        [symmetric]
    clear-delay         src, dst, [symmetric]  remove the extra delay
    clock-skew          dc, skew               set one datacenter's
                                               physical-clock skew (ms;
                                               0.0 models an NTP resync)
    reconfigure         [emergency]            trigger an epoch change
    ==================  =====================================================
    """

    kind: str
    at: Optional[float] = None
    at_choices: Optional[Tuple[float, ...]] = None
    args: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {sorted(KINDS)}")
        if (self.at is None) == (self.at_choices is None):
            raise ValueError(
                f"{self.kind}: exactly one of at/at_choices must be set")
        if self.at is not None and self.at < 0:
            raise ValueError(f"{self.kind}: at must be non-negative")
        if self.at_choices is not None:
            object.__setattr__(self, "at_choices", tuple(self.at_choices))
            choices = self.at_choices
            if not choices:
                raise ValueError(f"{self.kind}: at_choices must be non-empty")
            if any(b <= a for a, b in zip(choices, choices[1:])):
                raise ValueError(
                    f"{self.kind}: at_choices must be strictly ascending")
            if choices[0] < 0:
                raise ValueError(f"{self.kind}: times must be non-negative")
        missing = [name for name in KINDS[self.kind] if name not in self.args]
        if missing:
            raise ValueError(f"{self.kind}: missing args {missing}")


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, replayable fault script."""

    actions: Tuple[FaultAction, ...]
    name: str = "fault-plan"

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(self.actions))
