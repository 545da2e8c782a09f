"""Offline causal-consistency checker.

During a run, datacenters and clients record an :class:`ExecutionLog`:

* every update with its origin (``record_update``);
* every client session in its own order: each version the client read
  (``record_read``, which also carries the greatest version of that key
  the client had observed before) and each update it issued
  (``record_update_deps``).  An update's **true causal past** is every
  version its session read or wrote before it (:meth:`ExecutionLog.past`)
  — the exact set, not the conservative scalar/vector the protocols use;
* the order in which each datacenter made updates visible.

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

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

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


class ExecutionLog:
    """Everything that happened during a run, for offline validation."""

    def __init__(self, replication: ReplicationMap) -> None:
        self.replication = replication
        self.updates: Dict[VersionId, _UpdateRecord] = {}
        #: per-datacenter visibility order (position index per version)
        self._visible_pos: Dict[str, Dict[VersionId, int]] = {}
        self._reads: List[Tuple[str, str, str, Optional[VersionId],
                                Optional[VersionId]]] = []
        #: client -> (version, issued here?) of every version it read or
        #: wrote, in session order
        self._sessions: Dict[str, List[Tuple[VersionId, bool]]] = {}
        #: version -> (client, index in its session) of the issuing call
        self._issued: Dict[VersionId, Tuple[str, int]] = {}

    # ------------------------------------------------------------------
    # recording (called by datacenters and clients)
    # ------------------------------------------------------------------

    def record_update(self, label: Label, origin_dc: str,
                      created_at: float) -> None:
        """A local update was applied at its origin (visible there now)."""
        version = (label.ts, label.src)
        if version not in self.updates:
            self.updates[version] = _UpdateRecord(
                version=version, key=label.target or "", origin=origin_dc,
                created_at=created_at)
        self._mark_visible(origin_dc, version)

    def record_update_deps(self, client_id: str, version: VersionId) -> None:
        """Client *client_id* issued *version*: its causal past is what the
        session read or wrote before (:meth:`past`).  Independent of the
        origin's :meth:`record_update`, so either may come first."""
        session = self._sessions.setdefault(client_id, [])
        self._issued[version] = (client_id, len(session))
        session.append((version, True))

    def record_visible(self, label: Label, dc: str, at: float) -> None:
        """A remote update became visible at *dc*."""
        self._mark_visible(dc, (label.ts, label.src))

    def _mark_visible(self, dc: str, version: VersionId) -> None:
        positions = self._visible_pos.setdefault(dc, {})
        if version not in positions:
            positions[version] = len(positions)

    def record_read(self, client_id: str, dc: str, key: str,
                    returned: Optional[VersionId],
                    observed_max: Optional[VersionId]) -> None:
        self._reads.append((client_id, dc, key, returned, observed_max))
        if returned is not None:
            self._sessions.setdefault(client_id, []).append((returned, False))

    def past(self, version: VersionId) -> Tuple[VersionId, ...]:
        """The causal past of *version*: every version its issuing session
        read or wrote before it, once each, in session order (empty if no
        client reported issuing it)."""
        issued = self._issued.get(version)
        if issued is None:
            return ()
        client_id, end = issued
        return tuple(dict.fromkeys(
            seen for seen, _ in self._sessions[client_id][:end]))

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
        # every recorded version of each key, newest first
        versions_of: Dict[str, List[VersionId]] = {}
        for version in sorted(self.updates, reverse=True):
            versions_of.setdefault(self.updates[version].key, []).append(version)
        for dc, positions in self._visible_pos.items():
            # the position from which a recorded version counts as satisfied
            # here: the earliest of it or any newer version of its key.
            # Absent = exempt: never recorded, or a key this datacenter does
            # not replicate (genuine partial replication).
            never = len(positions)
            satisfied_from: Dict[VersionId, int] = {}
            for key, versions in versions_of.items():
                if self.replication.is_replicated_at(key, dc):
                    earliest = never
                    for version in versions:
                        earliest = min(earliest, positions.get(version, never))
                        satisfied_from[version] = earliest
            lookup = satisfied_from.get
            # one pass per session: *need* is the latest position any version
            # of the past so far needs, so an update visible at or before it
            # has a late dependency
            flagged: List[Tuple[int, VersionId]] = []
            for session in self._sessions.values():
                need = -1
                for version, issued in session:
                    if issued:
                        pos = positions.get(version)
                        if pos is not None and need >= pos:
                            flagged.append((pos, version))
                    need = max(need, lookup(version, -1))
            for pos, version in sorted(flagged):
                for dep in self.past(version):
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
        that, the general harness does not.
        """
        violations: List[Violation] = []
        visible = sorted(self._visible_pos.items())
        for version, record in sorted(self.updates.items()):
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
        return {dc: len(positions)
                for dc, positions in self._visible_pos.items()}

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
