"""Opt-in runtime hazard checker for the deterministic simulator.

Saturn's correctness argument (§5.3 of the paper) leans on a runtime
property the static lint cannot see: every network link behaves as a
**FIFO channel** — a label batch sent after another on the same (src, dst)
edge must be delivered after it.

:class:`HazardMonitor` is a passive observer of a
:class:`~repro.sim.network.Network` (one entry of its ``observers``
tuple).  Nothing is instrumented unless an observer is installed, so the
fast path stays untouched.  The monitor also keeps a SHA-256 digest of
the delivery trace — two runs with the same seed must produce identical
digests, and a run whose execution changed produces a different one — and
can cross-check the label streams each datacenter received against the
offline causality checker (:class:`repro.verify.ExecutionLog`).
Same-instant event ties are not audited here: the kernel breaks them by
scheduling order, and the model checker's controller explores them
(``["tie", k, choice]`` decisions).

Typical use::

    monitor = HazardMonitor.install(cluster.network)
    cluster.run(...)
    report = monitor.report()
    assert report.ok, report.summary()
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.label import Label, LabelType
from repro.datacenter.messages import LabelBatch
from repro.sim.network import Network

__all__ = ["HazardMonitor", "HazardReport", "FifoViolation"]


@dataclass(frozen=True)
class FifoViolation:
    """A message overtook an earlier one on the same directed link."""

    src: str
    dst: str
    expected_seq: int
    got_seq: int
    at: float

    def describe(self) -> str:
        return (f"FIFO violation on {self.src}->{self.dst} at t={self.at:.3f}: "
                f"delivered send #{self.got_seq}, expected #{self.expected_seq}")


@dataclass
class HazardReport:
    """Outcome of a monitored run."""

    fifo_violations: List[FifoViolation] = field(default_factory=list)
    messages_delivered: int = 0
    labels_delivered: int = 0
    causality_violations: List[Any] = field(default_factory=list)
    trace_digest: str = ""

    @property
    def ok(self) -> bool:
        """FIFO discipline held and (if cross-checked) causality held."""
        return not self.fifo_violations and not self.causality_violations

    def summary(self) -> str:
        lines = [
            f"messages delivered : {self.messages_delivered}",
            f"labels delivered   : {self.labels_delivered}",
            f"fifo violations    : {len(self.fifo_violations)}",
            f"causality breaches : {len(self.causality_violations)}",
            f"trace digest       : {self.trace_digest}",
        ]
        for violation in self.fifo_violations[:10]:
            lines.append("  " + violation.describe())
        for violation in self.causality_violations[:10]:
            lines.append(f"  {violation}")
        return "\n".join(lines)


class _LinkAudit:
    """Per directed-link sequencing state."""

    __slots__ = ("sent", "delivered", "last_arrival")

    def __init__(self) -> None:
        self.sent = 0
        #: highest sequence number delivered; ``None`` until the first
        #: delivery, which anchors it (a monitor installed after the network
        #: numbered some of this link's sends must not expect #1)
        self.delivered: Optional[int] = None
        self.last_arrival = float("-inf")


class HazardMonitor:
    """Network observer asserting FIFO discipline and digesting deliveries
    (``on_send`` / ``on_deliver``, see :mod:`repro.sim.network`)."""

    def __init__(self) -> None:
        self.network: Optional[Network] = None
        self._links: Dict[Tuple[str, str], _LinkAudit] = {}
        self._fifo_violations: List[FifoViolation] = []
        #: per-datacenter label arrival streams (dc process name -> labels)
        self._label_streams: Dict[str, List[Label]] = {}
        self._messages_delivered = 0
        self._labels_delivered = 0
        self._digest = hashlib.sha256()
        self._causality_violations: List[Any] = []

    @classmethod
    def install(cls, network: Network) -> "HazardMonitor":
        """Create a monitor and append it to *network*'s observers."""
        monitor = cls()
        monitor.network = network
        network.observers += (monitor,)
        return monitor

    # -- network observer protocol ----------------------------------------

    def on_send(self, src: str, dst: str, message: Any,
                arrival: float) -> None:
        link = self._links.setdefault((src, dst), _LinkAudit())
        link.sent += 1
        if arrival < link.last_arrival:
            # the network failed to clamp: this *will* reorder
            self._fifo_violations.append(FifoViolation(
                src=src, dst=dst, expected_seq=link.sent,
                got_seq=link.sent, at=arrival))
        link.last_arrival = max(link.last_arrival, arrival)

    def on_deliver(self, src: str, dst: str, seq: int, message: Any) -> None:
        link = self._links.setdefault((src, dst), _LinkAudit())
        now = self.network.sim.now if self.network is not None else 0.0
        last = seq - 1 if link.delivered is None else link.delivered
        if seq != last + 1:
            self._fifo_violations.append(FifoViolation(
                src=src, dst=dst, expected_seq=last + 1, got_seq=seq, at=now))
        link.delivered = max(last, seq)
        self._messages_delivered += 1
        self._digest.update(
            f"{now!r}|{src}|{dst}|{type(message).__name__}".encode())
        if isinstance(message, LabelBatch):
            self._labels_delivered += len(message.labels)
            # replayed batches (sink backlog re-sent after an emergency
            # epoch change) merge several origins' recovery traffic through
            # the new tree, so their arrival order carries no ordering
            # guarantee — visibility during recovery is justified by the
            # timestamp fallback + dedup, not by delivery order.  The same
            # goes for batches the receiving proxy will not feed through
            # the saturn-order pipeline at all (abandoned-tree remnants
            # arriving during the timestamp fallback, e.g. the flood
            # released when a partition heals after an emergency switch).
            # Both still count above and feed the determinism digest below.
            if dst.startswith("dc:") and not message.replayed:
                if self._proxy_consumes_order(dst, message.epoch):
                    self._label_streams.setdefault(dst, []).extend(
                        message.labels)
            for label in message.labels:
                self._digest.update(
                    f"|{label.ts!r}|{label.src}|{label.type.value}".encode())

    def _proxy_consumes_order(self, dst: str, epoch: int) -> bool:
        """Ask the destination datacenter's proxy (when reachable through
        the network registry) whether this batch enters its saturn-order
        pipeline; assume yes for non-datacenter receivers."""
        if self.network is None:
            return True
        try:
            process = self.network.process(dst)
        except KeyError:  # pragma: no cover - defensive
            return True
        proxy = getattr(process, "proxy", None)
        if proxy is None or not hasattr(proxy, "consumes_label_order"):
            return True
        return proxy.consumes_label_order(epoch)

    # -- cross-checking against the offline causality checker -------------

    def crosscheck(self, log) -> List[Any]:
        """Validate the run against :class:`repro.verify.ExecutionLog`.

        Two checks: (1) the log's own causal-order / session validation;
        (2) at every datacenter, the update labels Saturn delivered became
        visible in delivery order (first-arrival order must match the
        log's visibility positions — the serializer tree's whole job).
        Returns the violations (also kept for :meth:`report`).
        """
        violations: List[Any] = list(log.check())
        for dst, labels in sorted(self._label_streams.items()):
            dc_name = dst[len("dc:"):]
            order = log.visibility_positions(dc_name)
            last_pos = -1
            last_version: Optional[Tuple[float, str]] = None
            seen = set()
            for label in labels:
                if label.type is not LabelType.UPDATE:
                    continue
                version = (label.ts, label.src)
                if version in seen:
                    continue
                seen.add(version)
                pos = order.get(version)
                if pos is None:
                    continue  # delivered but never applied (run truncated)
                if pos < last_pos:
                    violations.append(
                        f"visibility order at {dc_name} contradicts label "
                        f"delivery order: {version} became visible at "
                        f"position {pos} before {last_version} "
                        f"(position {last_pos})")
                else:
                    last_pos, last_version = pos, version
        self._causality_violations = violations
        return violations

    # -- results -----------------------------------------------------------

    def trace_digest(self) -> str:
        """SHA-256 over (time, src, dst, message-type[, labels]) tuples."""
        return self._digest.hexdigest()

    def report(self) -> HazardReport:
        return HazardReport(
            fifo_violations=list(self._fifo_violations),
            messages_delivered=self._messages_delivered,
            labels_delivered=self._labels_delivered,
            causality_violations=list(self._causality_violations),
            trace_digest=self.trace_digest(),
        )
