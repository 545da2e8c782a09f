"""Deterministic fault injection for the simulated Saturn deployment.

``repro.faults`` turns failures into data: a :class:`~repro.faults.plan.FaultPlan`
is a script of crash / restart / partition / delay / clock-skew /
reconfigure actions at simulated times, and a
:class:`~repro.faults.injector.FaultInjector` schedules it onto a running
scenario.  Because the simulator is deterministic and the plan is explicit,
any faulty execution replays bit-identically.

Fault *timing* can also be left open (``at_choices``) and resolved by the
model checker's schedule controller, which makes crash instants part of the
explored schedule space (see :mod:`repro.analysis.mc`).

The fault scenarios live in the model checker's one scenario table
(:data:`repro.analysis.mc.scenario.SCENARIOS`); run, sweep or
determinism-check any of them from its CLI::

    python -m repro.analysis.mc --list
    python -m repro.analysis.mc --scenario serializer-crash --strategy fifo --json
    saturn-repro mc --scenario root-partition --strategy pct --budget 10 --seed 7
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultAction, FaultPlan

__all__ = ["FaultAction", "FaultPlan", "FaultInjector"]
