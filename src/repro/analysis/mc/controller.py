"""Schedule controller: the bridge between the kernel and a strategy.

A :class:`ScheduleController` implements the two hooks the substrates
expose — :attr:`repro.sim.engine.Simulator.controller` (``on_schedule`` /
``choose``) and :attr:`repro.sim.network.Network.perturb` — and records
every decision it makes as a flat list, in occurrence order:

* ``["tie", k, choice]`` — *k* eligible events shared the minimal
  instant and the eligible event at index *choice* (in ``(time, seq)``
  order) ran next.  Links are FIFO (the paper's §5.3, and TCP), so of
  several same-instant deliveries on one ``(src, dst)`` link only the
  oldest is eligible: a schedule that delivers a link's send #4 before
  its send #2 is one no network can produce.  A tie group with a single
  eligible event is no decision;
* ``["delay", value]`` — a message send on a targeted link was delayed by
  *value* extra milliseconds (bounded by the strategy);
* ``["fault", k, choice]`` — a fault action with *k* candidate instants
  (``FaultAction.at_choices``) fired at candidate index *choice*.  Fault
  decisions are resolved when the plan is applied, before the kernel
  starts, so they form a stable prefix of the trace.

The recorded list *is* the schedule: the scenario build is deterministic,
so replaying the same decisions reproduces the execution bit-identically.
A controller is constructed with an optional ``script`` (decisions to
force, consumed in order); once the script is exhausted the strategy
answers.  The all-default schedule — empty script with the FIFO strategy —
is identical to an uncontrolled run.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.sim.engine import Event, Simulator
from repro.sim.network import Network
from repro.sim.process import Process

__all__ = ["ScheduleController", "decisions_hash", "nondefault_count"]

#: decision kinds (list-encoded for JSON friendliness)
TIE = "tie"
DELAY = "delay"
FAULT = "fault"


def decisions_hash(scenario: str, mutation: Optional[str],
                   decisions: Sequence[list]) -> str:
    """Stable SHA-256 over (scenario, mutation, decision list)."""
    payload = json.dumps(
        {"scenario": scenario, "mutation": mutation,
         "decisions": [list(d) for d in decisions]},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def nondefault_count(decisions: Sequence[list]) -> int:
    """Number of decisions that deviate from the FIFO/no-delay default."""
    count = 0
    for decision in decisions:
        if decision[0] in (TIE, FAULT) and decision[2] != 0:
            count += 1
        elif decision[0] == DELAY and decision[1] != 0.0:
            count += 1
    return count


def _link_of(event: Event) -> Optional[Tuple[str, str]]:
    """``(src, dst)`` if *event* delivers a network message, else None.

    The network schedules a delivery as ``Network._observed_deliver(target,
    src, dst, seq, message)`` while observers are installed and as
    ``target.deliver(src, message)`` otherwise; the kernel hands either to
    the controller as a ``partial``."""
    callback = event.callback
    if not isinstance(callback, partial):
        return None
    owner = getattr(callback.func, "__self__", None)
    if isinstance(owner, Network) and callback.func == owner._observed_deliver:
        return callback.args[1], callback.args[2]
    if isinstance(owner, Process) and callback.func == owner.deliver:
        return callback.args[0], owner.name
    return None


def _fifo_eligible(events: List[Event]) -> List[int]:
    """Indices of *events* a FIFO network may run next: every event that
    is not a delivery, and the oldest delivery of each link."""
    eligible = []
    links = set()
    for index, event in enumerate(events):
        link = _link_of(event)
        if link is not None:
            if link in links:
                continue
            links.add(link)
        eligible.append(index)
    return eligible


class ScheduleController:
    """Records (and optionally forces) one run's schedule decisions."""

    def __init__(self, strategy, script: Optional[Sequence[list]] = None,
                 delay_links: Optional[FrozenSet[Tuple[str, str]]] = None) -> None:
        self.strategy = strategy
        self.script: List[list] = [list(d) for d in (script or [])]
        self._cursor = 0
        #: directed (src process, dst process) pairs whose sends are
        #: perturbation decision points; empty set = no delay decisions
        self.delay_links = delay_links or frozenset()
        #: decisions actually taken this run, in occurrence order
        self.trace: List[list] = []

    # -- installation ------------------------------------------------------

    def install(self, sim: Simulator, network: Optional[Network] = None) -> None:
        if sim.controller is not None:
            raise RuntimeError("simulator already has a controller attached")
        sim.controller = self
        if network is not None and self.delay_links:
            if network.perturb is not None:
                raise RuntimeError("network already has a perturbation hook")
            network.perturb = self._perturb

    # -- scripted-decision consumption -------------------------------------

    def _next_scripted(self, kind: str):
        """Next scripted value for *kind*, or None once off-script.

        Decisions are consumed strictly in order; a kind mismatch means the
        prefix diverged (normal during shrinking — a zeroed-out early
        decision changes every later choice point), so the rest of the
        script is abandoned and the strategy takes over.
        """
        if self._cursor >= len(self.script):
            return None
        decision = self.script[self._cursor]
        if decision[0] != kind:
            self._cursor = len(self.script)
            return None
        self._cursor += 1
        return decision[1] if kind == DELAY else decision[2]

    # -- Simulator controller protocol -------------------------------------

    def on_schedule(self, event: Event) -> None:
        self.strategy.on_schedule(event)

    def choose(self, time: float, events: List[Event]) -> int:
        eligible = _fifo_eligible(events)
        k = len(eligible)
        if k == 1:
            return eligible[0]
        choice = self._next_scripted(TIE)
        if choice is None:
            choice = self.strategy.choose_tie(
                time, [events[index] for index in eligible])
        if not 0 <= choice < k:
            # a shrunken/foreign script can name a branch that no longer
            # exists; fall back to FIFO instead of crashing the replay
            choice = 0
        self.trace.append([TIE, k, choice])
        return eligible[choice]

    # -- FaultInjector chooser protocol --------------------------------------

    def choose_fault(self, name: str, k: int) -> int:
        """Pick among *k* candidate fire instants for fault point *name*."""
        choice = self._next_scripted(FAULT)
        if choice is None:
            choice = self.strategy.choose_fault(name, k)
        if not 0 <= choice < k:
            choice = 0
        self.trace.append([FAULT, k, choice])
        return choice

    # -- Network perturbation protocol --------------------------------------

    def _perturb(self, src: str, dst: str) -> float:
        if (src, dst) not in self.delay_links:
            return 0.0
        value = self._next_scripted(DELAY)
        if value is None:
            value = self.strategy.choose_delay(src, dst)
        value = max(0.0, float(value))
        self.trace.append([DELAY, value])
        return value
