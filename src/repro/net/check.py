"""Judge a real-cluster run with the simulator's oracle.

Each datacenter node leaves a ``visibility.jsonl`` hook journal (see
:class:`~repro.net.node.HookJournal`).  Replaying the journals, each in
file order, into one :class:`~repro.verify.ExecutionLog` and the two
metrics recorders gives a TCP run the verdict a simulated run gets:
``check()`` (causal order over the true causal pasts, session
monotonicity) plus ``check_completeness()`` (nothing lost, nothing
leaked past its replication group).  A datacenter's visibility order is
the order of its own file, so the merge never compares two nodes' clocks.
A client's calls all land in its own node's file, in session order, so a
causal past needs nothing from the other files: each ``record_update_deps``
line is just ``(client, version)``.

A node killed mid-write leaves a torn last line: a final line that does
not decode is ignored and counted (``torn_lines``); a malformed line
anywhere else is an error.

The one scenario-specific clause: every scripted plain read returned a
version (the reader's final ``g0:a`` read is the end-to-end witness).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List

from repro.metrics import OpRecorder, VisibilityRecorder
from repro.net.codec import decode_value
from repro.net.spec import ClusterSpec
from repro.verify import ExecutionLog

__all__ = ["CheckResult", "check_cluster"]


@dataclass
class CheckResult:
    """Outcome of a cluster check; ``ok`` iff no problems."""

    log: ExecutionLog
    visibility: VisibilityRecorder = field(default_factory=VisibilityRecorder)
    ops: OpRecorder = field(default_factory=OpRecorder)
    problems: List[str] = field(default_factory=list)
    #: dc -> journal lines replayed
    journal_lines: Dict[str, int] = field(default_factory=dict)
    #: dc -> torn final lines ignored (0 or 1)
    torn_lines: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems

    def to_json(self) -> Dict[str, Any]:
        visible = self.log.visible_counts()
        return {
            "ok": self.ok,
            "problems": list(self.problems),
            "visible": {dc: visible.get(dc, 0)
                        for dc in sorted(self.journal_lines)},
            "journal_lines": dict(sorted(self.journal_lines.items())),
            "torn_lines": dict(sorted(self.torn_lines.items())),
            "visibility": {"samples": self.visibility.count(),
                           "mean_ms": self.visibility.mean()},
            "ops": {"samples": self.ops.total_ops(),
                    "mean_ms": self.ops.mean_latency()},
        }


def check_cluster(cluster_dir: Path) -> CheckResult:
    """Replay a cluster directory's journals and check the result."""
    cluster_dir = Path(cluster_dir)
    spec = ClusterSpec.load(cluster_dir / "spec.json")
    result = CheckResult(ExecutionLog(spec.replication()))
    hooks = {name: getattr(sink, name)
             for sink in (result.log, result.visibility, result.ops)
             for name in dir(sink) if name.startswith("record_")}
    for site in spec.sites:
        path = cluster_dir / f"dc-{site}" / "visibility.jsonl"
        lines = (path.read_text(encoding="utf-8").splitlines()
                 if path.exists() else [])
        result.torn_lines[site] = 0
        for number, line in enumerate(lines, 1):
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                if number < len(lines):
                    raise
                result.torn_lines[site] = 1   # a kill cut the last write
                break
            hooks[entry["hook"]](*decode_value(entry["args"]))
        result.journal_lines[site] = len(lines) - result.torn_lines[site]

    result.problems += [
        f"{violation.kind}: at {violation.dc}, {violation.detail}"
        for violation in result.log.check() + result.log.check_completeness()]
    versioned = {(client, key) for client, _, key, returned, _
                 in result.log.reads() if returned is not None}
    for client in spec.clients:
        for op in client["script"]:
            if op["op"] == "read" and (client["id"], op["key"]) not in versioned:
                result.problems.append(
                    f"read: client {client['id']} at {client['dc']} never "
                    f"read a version of {op['key']!r}")
    return result
