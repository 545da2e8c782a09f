"""Correctness tooling for the Saturn reproduction.

Two halves, both specific to this repository:

* the static analysis engine (:mod:`repro.analysis.engine`, run with
  ``python -m repro.analysis src/repro``) — one parse, one rule catalogue
  (:mod:`repro.analysis.rules`) and one report over three rule families:
  SAT rejects the per-file bugs that would silently break the
  deterministic simulator (wall-clock reads, unseeded randomness,
  unordered set/dict iteration on scheduling or label-emission paths,
  float-timestamp equality, mutable defaults, cross-process state
  mutation); ARCH holds the tree to ``arch_contract.toml`` (layering,
  interprocedural sim-purity, wire-safe messages); CONC audits the asyncio
  transport path (event-loop stalls, dropped coroutines, await-point lost
  updates, lock order, swallowed cancellation, leaked tasks).

* :mod:`repro.analysis.runtime` — an opt-in dynamic checker that
  observes the network to assert per-link FIFO delivery (Saturn's
  serializer channels *must* be FIFO, §5.3), digest the delivery trace,
  and cross-check label delivery order against the offline causality
  checker.

Determinism is load-bearing here: the paper's visibility-time claims are
only testable if a seed reproduces the exact same execution, and the
causal-order guarantee of the serializer tree collapses if any edge can
reorder labels.
"""

from repro.analysis.engine import analyze, lint_source
from repro.analysis.report import Finding, Report
from repro.analysis.rules import ALL_RULES, RULES_BY_CODE, Rule
from repro.analysis.runtime import FifoViolation, HazardMonitor, HazardReport

__all__ = [
    "ALL_RULES",
    "RULES_BY_CODE",
    "Rule",
    "Finding",
    "Report",
    "analyze",
    "lint_source",
    "HazardMonitor",
    "HazardReport",
    "FifoViolation",
]
