"""The one finding type, ``# noqa`` filter and report of the analysis engine.

Every rule family (SAT, ARCH, CONC) reports :class:`Finding`s; whole-program
rules may attach a *witness* — the purity and blocking passes the full call
chain from entry point to offending call site, the atomicity and lock-order
passes the lines that interleave.

Suppression: append ``# noqa`` (all rules) or ``# noqa: SAT003`` /
``# noqa: ARCH001, CONC005`` (specific rules) to the reported line.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

__all__ = ["Finding", "Report", "finalize"]

_NOQA_RE = re.compile(
    r"#\s*noqa\b(?::\s*(?P<codes>[A-Z]{3,4}\d{3}"
    r"(?:\s*,\s*[A-Z]{3,4}\d{3})*))?",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location, optionally with a witness."""

    file: str
    line: int
    col: int
    code: str
    message: str
    witness: Tuple[str, ...] = ()

    def format(self) -> str:
        head = (f"{self.file}:{self.line}:{self.col + 1} {self.code} "
                f"{self.message}")
        if not self.witness:
            return head
        chain = "\n".join(f"    {'-> ' if i else '   '}{step}"
                          for i, step in enumerate(self.witness))
        return f"{head}\n  witness:\n{chain}"


@dataclass
class Report:
    """Aggregate result of one engine run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.findings

    def format_human(self) -> str:
        lines = [finding.format() for finding in self.findings]
        noun = "file" if self.files_checked == 1 else "files"
        lines.append(
            f"{len(self.findings)} finding(s) in {self.files_checked} {noun} "
            f"({len(self.rules_run)} rules)")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps({
            "ok": self.ok,
            "files_checked": self.files_checked,
            "rules": list(self.rules_run),
            "findings": [
                {"file": f.file, "line": f.line, "col": f.col,
                 "code": f.code, "message": f.message,
                 "witness": list(f.witness)}
                for f in self.findings
            ],
        }, indent=2)


def _suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    """line -> None (suppress all) or the set of suppressed codes."""
    table: Dict[int, Optional[Set[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if not match:
            continue
        codes = match.group("codes")
        if codes is None:
            table[lineno] = None
        else:
            table[lineno] = {c.strip().upper() for c in codes.split(",")}
    return table


def finalize(findings: Iterable[Finding],
             sources: Dict[str, str]) -> List[Finding]:
    """Drop ``# noqa``-suppressed findings, de-duplicate, and sort.

    *sources* maps file path -> source text.  Several import edges (one
    per imported name), call paths or BFS entries can land on the same
    location with the same message — each defect is reported once.
    """
    tables: Dict[str, Dict[int, Optional[Set[str]]]] = {}
    kept: Dict[tuple, Finding] = {}
    for finding in findings:
        table = tables.get(finding.file)
        if table is None:
            table = tables[finding.file] = _suppressions(
                sources.get(finding.file, ""))
        suppressed = table.get(finding.line, ...)
        if suppressed is None:
            continue
        if suppressed is not ... and finding.code in suppressed:
            continue
        kept.setdefault((finding.file, finding.line, finding.col,
                         finding.code, finding.message), finding)
    return [kept[key] for key in sorted(kept)]
