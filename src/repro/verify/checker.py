"""Offline causal-consistency checker.

During a run, datacenters and clients record an :class:`ExecutionLog`:

* every update with its origin and its **true causal past** (the exact set
  of update versions the issuing client had observed — not the conservative
  scalar/vector the protocols use);
* the order in which each datacenter made updates visible;
* every read, with the version returned and the greatest version of that
  key the client had previously observed.

:func:`ExecutionLog.check` then validates two properties:

1. **Causal visibility order** — at every datacenter, an update becomes
   visible only after every update in its causal past that is replicated at
   that datacenter (genuine partial replication: dependencies on items a
   datacenter does not replicate are exempt, §2).
2. **Session monotonicity** — a read never returns a version of a key older
   (in the total label order) than a version of that key the client had
   already observed; with last-writer-wins storage this subsumes
   read-your-writes and monotonic reads.

The eventually consistent baseline genuinely violates (1) under concurrent
cross-datacenter traffic, which the tests use as a positive control.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.label import Label
from repro.core.replication import ReplicationMap

__all__ = ["ExecutionLog", "Violation"]

VersionId = Tuple[float, str]


@dataclass(frozen=True)
class Violation:
    """One detected consistency violation."""

    #: "causal-order" | "session-monotonicity" from check();
    #: "completeness" | "partial-replication" from check_completeness()
    kind: str
    dc: str
    detail: str


@dataclass
class _UpdateRecord:
    version: VersionId
    key: str
    origin: str
    created_at: float
    deps: FrozenSet[VersionId] = frozenset()


class ExecutionLog:
    """Everything that happened during a run, for offline validation."""

    def __init__(self, replication: ReplicationMap) -> None:
        self.replication = replication
        self.updates: Dict[VersionId, _UpdateRecord] = {}
        #: per-datacenter visibility order (position index per version)
        self._visible_pos: Dict[str, Dict[VersionId, int]] = {}
        self._visible_count: Dict[str, int] = {}
        self._reads: List[Tuple[str, str, str, Optional[VersionId],
                                Optional[VersionId]]] = []

    # ------------------------------------------------------------------
    # recording (called by datacenters and clients)
    # ------------------------------------------------------------------

    def record_update(self, label: Label, origin_dc: str,
                      created_at: float) -> None:
        """A local update was applied at its origin (visible there now)."""
        version = (label.ts, label.src)
        record = self.updates.get(version)
        if record is None or not record.origin:
            # a deps-first stub (see record_update_deps) keeps its deps
            self.updates[version] = _UpdateRecord(
                version=version, key=label.target or "", origin=origin_dc,
                created_at=created_at,
                deps=record.deps if record is not None else frozenset())
        self._mark_visible(origin_dc, version)

    def record_update_deps(self, version: VersionId,
                           deps: FrozenSet[VersionId]) -> None:
        """The issuing client's true causal past for *version*."""
        record = self.updates.get(version)
        if record is not None:
            record.deps = deps
        else:
            # the client's reply was recorded ahead of the datacenter hook
            # (merged per-node journals: a migrated client's deps and its
            # update live in different files): store a stub
            self.updates[version] = _UpdateRecord(
                version=version, key="", origin="", created_at=0.0, deps=deps)

    def record_visible(self, label: Label, dc: str, at: float) -> None:
        """A remote update became visible at *dc*."""
        self._mark_visible(dc, (label.ts, label.src))

    def _mark_visible(self, dc: str, version: VersionId) -> None:
        positions = self._visible_pos.setdefault(dc, {})
        if version in positions:
            return
        positions[version] = self._visible_count.get(dc, 0)
        self._visible_count[dc] = positions[version] + 1

    def record_read(self, client_id: str, dc: str, key: str,
                    returned: Optional[VersionId],
                    observed_max: Optional[VersionId]) -> None:
        self._reads.append((client_id, dc, key, returned, observed_max))

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def check(self) -> List[Violation]:
        violations = list(self._check_causal_order())
        violations.extend(self._check_sessions())
        return violations

    def _check_causal_order(self):
        """A dependency is satisfied when it — or, with last-writer-wins
        registers, any *newer* version of the same key (the causal+
        convergence rule) — became visible earlier."""
        for dc, positions in self._visible_pos.items():
            # per key: the versions visible at this datacenter, sorted, and
            # for each the earliest position of it or any newer version
            by_key: Dict[str, Tuple[List[VersionId], List[int]]] = {}
            for version in positions:
                record = self.updates.get(version)
                if record is not None and record.key:
                    by_key.setdefault(record.key, ([], []))[0].append(version)
            for versions, earliest in by_key.values():
                versions.sort()
                earliest.extend(positions[version] for version in versions)
                for i in range(len(earliest) - 2, -1, -1):
                    if earliest[i + 1] < earliest[i]:
                        earliest[i] = earliest[i + 1]
            # one bisect per recorded update, not one scan per dependency
            # edge: the position from which it counts as satisfied here.
            # Absent = exempt: never recorded, or a key this datacenter does
            # not replicate (genuine partial replication).
            never = len(positions)
            satisfied_from: Dict[VersionId, int] = {}
            replicated: Dict[str, bool] = {}
            for dep, dep_record in self.updates.items():
                key = dep_record.key
                if key not in replicated:
                    replicated[key] = self.replication.is_replicated_at(key, dc)
                if replicated[key]:
                    versions, earliest = by_key.get(key, ((), ()))
                    i = bisect_left(versions, dep)
                    satisfied_from[dep] = (earliest[i] if i < len(versions)
                                           else never)
            lookup = satisfied_from.get
            for version, pos in positions.items():
                record = self.updates.get(version)
                if record is None:
                    continue
                for dep in record.deps:
                    if lookup(dep, -1) >= pos:
                        yield Violation(
                            kind="causal-order", dc=dc,
                            detail=(f"update {version} visible at {dc} before "
                                    f"its dependency {dep}"))

    def check_completeness(self) -> List[Violation]:
        """No update may be lost and none may leak: every recorded update
        must have become visible at every datacenter that replicates its
        key (``completeness``) and at no other (``partial-replication``).

        Separate from :meth:`check` because the first half is only sound
        once the run has quiesced (labels still in flight at the horizon
        would be false positives); the model checker's scenarios guarantee
        that, the general harness does not.  Stub records (deps known but
        the origin hook never fired) are skipped.
        """
        violations: List[Violation] = []
        visible = sorted(self._visible_pos.items())
        for version, record in sorted(self.updates.items()):
            if not record.key or not record.origin:
                continue
            what = (f"update {version} of key {record.key!r} "
                    f"(origin {record.origin})")
            replicas = self.replication.replicas(record.key)
            for dc in sorted(replicas):
                if version not in self._visible_pos.get(dc, {}):
                    violations.append(Violation(
                        kind="completeness", dc=dc,
                        detail=f"{what} never became visible"))
            for dc, positions in visible:
                if version in positions and dc not in replicas:
                    violations.append(Violation(
                        kind="partial-replication", dc=dc,
                        detail=f"{what} became visible at a datacenter "
                               f"that does not replicate its key"))
        return violations

    def _check_sessions(self):
        for client_id, dc, key, returned, observed_max in self._reads:
            if observed_max is None:
                continue
            if returned is None or returned < observed_max:
                yield Violation(
                    kind="session-monotonicity", dc=dc,
                    detail=(f"client {client_id} read {key} at {dc}: got "
                            f"{returned}, had observed {observed_max}"))

    # ------------------------------------------------------------------

    def visible_counts(self) -> Dict[str, int]:
        return dict(self._visible_count)

    def visibility_positions(self, dc: str) -> Dict[VersionId, int]:
        """Version -> visibility position at *dc* (empty if unknown dc).

        Used by the runtime hazard checker to cross-check that updates
        became visible in label-delivery order."""
        return dict(self._visible_pos.get(dc, {}))

    def read_count(self) -> int:
        return len(self._reads)

    def reads(self) -> List[Tuple[str, str, str, Optional[VersionId],
                                  Optional[VersionId]]]:
        """(client, dc, key, returned, observed_max) of every read."""
        return list(self._reads)
