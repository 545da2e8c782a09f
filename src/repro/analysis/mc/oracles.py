"""Invariant oracles evaluated on every explored schedule.

Each oracle returns a list of human-readable violation strings; an empty
list from every oracle means the schedule is a witness that the invariants
held on that interleaving.  The FIFO/digest and causality oracles reuse
the existing checkers (:class:`repro.analysis.runtime.HazardMonitor`,
:class:`repro.verify.ExecutionLog`); the genuine-partial-replication
oracle (:class:`RoutingOracle`) is this module's own: a network observer
that flags any label entering a tree branch with no interested
datacenter (which would leak metadata the paper's §2 promises never
leaves the interested sub-tree) and any update delivered to a datacenter
that does not replicate it.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.baselines.base import BaselinePayload
from repro.baselines.eunomia import EunomiaBatch
from repro.core.serializer import interest_of
from repro.datacenter.messages import LabelBatch

__all__ = ["RoutingOracle", "evaluate_oracles"]


def _serializer_coords(process_name: str) -> Optional[Tuple[int, str]]:
    """``"ser:e{epoch}:{tree_name}"`` -> (epoch, tree_name), else None."""
    if not process_name.startswith("ser:e"):
        return None
    parts = process_name.split(":", 2)
    if len(parts) != 3:
        return None
    try:
        return int(parts[1][1:]), parts[2]
    except ValueError:
        return None


class RoutingOracle:
    """Genuine partial replication: metadata reaches only interested sites.

    One network observer (one entry of ``Network.observers``) for every
    protocol; it branches on what is delivered:

    * a ``LabelBatch`` from a serializer to another serializer: the
      label's interest set must intersect the set of datacenters
      reachable through that edge of the epoch's tree (otherwise the
      serializer leaked it into a dead branch);
    * a ``LabelBatch`` from a serializer to a datacenter: the receiving
      datacenter must be in the label's interest set (origin excluded —
      a label never returns home);
    * a ``BaselinePayload`` or ``EunomiaBatch`` to a datacenter: the
      stabilization baselines have no tree — replication is
      point-to-point (GentleRain/Cure/Okapi) or fanned out by a per-site
      sequencer (Eunomia) — so the routing promise is the destination
      set: the datacenters that replicate the key, never the origin.

    ``service`` is the Saturn tree registry, ``None`` for a baseline.
    """

    def __init__(self, replication, service=None) -> None:
        self.replication = replication
        self.service = service
        self.violations: List[str] = []

    # -- network observer protocol ------------------------------------------

    def on_send(self, src: str, dst: str, message: Any, arrival: float) -> None:
        return None

    def on_deliver(self, src: str, dst: str, seq: int, message: Any) -> None:
        if isinstance(message, LabelBatch):
            src_coords = _serializer_coords(src)
            if src_coords is None:
                return  # sink -> serializer ingress: origin side, always legal
            if dst.startswith("dc:"):
                self._check_dc_delivery(src, dst[len("dc:"):], message)
            else:
                dst_coords = _serializer_coords(dst)
                if dst_coords is not None:
                    self._check_tree_edge(src_coords, dst_coords, src, dst,
                                          message)
        elif isinstance(message, BaselinePayload):
            self._check_payloads(src, dst, (message,))
        elif isinstance(message, EunomiaBatch):
            self._check_payloads(src, dst, message.payloads)

    # -- checks -------------------------------------------------------------

    def _check_dc_delivery(self, src: str, dc_name: str,
                           batch: LabelBatch) -> None:
        for label in batch.labels:
            if label.origin_dc == dc_name:
                self.violations.append(
                    f"label {label!r} delivered back to its origin "
                    f"datacenter {dc_name} by {src}")
                continue
            interested = interest_of(label, self.replication)
            if dc_name not in interested:
                self.violations.append(
                    f"label {label!r} delivered to uninterested datacenter "
                    f"{dc_name} by {src}")

    def _check_tree_edge(self, src_coords: Tuple[int, str],
                         dst_coords: Tuple[int, str], src: str, dst: str,
                         batch: LabelBatch) -> None:
        epoch, src_name = src_coords
        _, dst_name = dst_coords
        try:
            topology = self.service.topology(epoch)
            reachable = topology.reachable_dcs(src_name, dst_name)
        except KeyError:
            self.violations.append(
                f"label batch on unknown tree edge {src} -> {dst}")
            return
        for label in batch.labels:
            interested = interest_of(label, self.replication)
            if not interested & reachable:
                self.violations.append(
                    f"label {label!r} traversed branch {src_name} -> "
                    f"{dst_name} (epoch {epoch}) with no interested "
                    f"datacenter (interest={sorted(interested)}, "
                    f"branch={sorted(reachable)})")

    def _check_payloads(self, src: str, dst: str, payloads) -> None:
        if not dst.startswith("dc:"):
            return  # datacenter -> sequencer ingress: origin side, legal
        dc_name = dst[len("dc:"):]
        for payload in payloads:
            if payload.label.origin_dc == dc_name:
                self.violations.append(
                    f"payload {payload.label!r} delivered back to its "
                    f"origin datacenter {dc_name} by {src}")
                continue
            if dc_name not in self.replication.replicas(payload.key):
                self.violations.append(
                    f"payload for key {payload.key!r} delivered to "
                    f"non-replica datacenter {dc_name} by {src}")


def evaluate_oracles(scenario) -> List[str]:
    """Run every oracle against a finished scenario run.

    Returns violation strings prefixed with the oracle name, most specific
    first.  ``scenario`` is a built-and-run
    :class:`repro.analysis.mc.scenario.Scenario`.
    """
    violations: List[str] = []

    report = scenario.monitor.report()
    for item in report.fifo_violations:
        violations.append(f"fifo: {item.describe()}")

    for item in scenario.monitor.crosscheck(scenario.log):
        violations.append(f"causality: {item}")

    violations.extend(
        f"partial-replication: {item}"
        for item in scenario.routing_oracle.violations)

    for item in scenario.log.check_completeness():
        violations.append(f"{item.kind}: {item.detail} (at {item.dc})")

    # a scenario that did no work proves nothing: guard against a schedule
    # (or a bad mutation) silently starving the clients
    updates = len(scenario.log.updates)
    if updates < scenario.min_expected_updates:
        violations.append(
            f"liveness: only {updates} updates recorded, expected at least "
            f"{scenario.min_expected_updates}")
    return violations
