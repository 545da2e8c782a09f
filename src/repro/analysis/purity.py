"""Pass 2 — interprocedural sim-purity (ARCH101).

BFS over the call graph from each contract-declared protocol entry point.
If any reachable function directly uses a forbidden source (wall clock,
global RNG, entropy, threading/asyncio, sockets, files, environment), one
finding is emitted per (entry point, forbidden call site) with the full
witness chain from the entry point to the offending line.

Traversal does not descend *into* functions whose module matches a
``boundary_modules`` prefix (the sanctioned kernel seams): the kernel is
audited by its own tests, and protocol code is only responsible for what it
reaches outside those seams.
"""

from __future__ import annotations

import fnmatch
from typing import Dict, List, Optional, Tuple

from repro.analysis.callgraph import CallGraph, FunctionInfo
from repro.analysis.contract import ArchContract
from repro.analysis.helpers import locate, module_file, witness_chain
from repro.analysis.imports import ModuleGraph
from repro.analysis.report import Finding

__all__ = ["check_purity"]


def _match_entry_points(cg: CallGraph,
                        patterns: Tuple[str, ...]) -> List[FunctionInfo]:
    entries: List[FunctionInfo] = []
    for key in sorted(cg.functions):
        # keys look like "repro.datacenter.gear:Gear.update"
        if any(fnmatch.fnmatchcase(key, pattern) for pattern in patterns):
            entries.append(cg.functions[key])
    return entries


def _in_boundary(module: str, boundaries: Tuple[str, ...]) -> bool:
    return any(module == b or module.startswith(b + ".")
               for b in boundaries)


def check_purity(graph: ModuleGraph, cg: CallGraph,
                 contract: ArchContract) -> List[Finding]:
    entries = _match_entry_points(cg, contract.purity_entry_points)
    boundaries = contract.purity_boundary_modules
    findings: List[Finding] = []
    for entry in entries:
        findings.extend(_audit_entry(graph, cg, entry, boundaries))
    return findings


def _audit_entry(graph: ModuleGraph, cg: CallGraph, entry: FunctionInfo,
                 boundaries: Tuple[str, ...]) -> List[Finding]:
    # BFS with parent pointers so each finding carries a shortest witness
    parent: Dict[str, Optional[Tuple[str, int]]] = {entry.key: None}
    queue: List[str] = [entry.key]
    findings: List[Finding] = []
    reported: set = set()
    while queue:
        key = queue.pop(0)
        fn = cg.functions[key]
        for use in fn.forbidden:
            signature = (fn.key, use.line, use.dotted)
            if signature in reported:
                continue
            reported.add(signature)
            witness = witness_chain(graph, cg, parent, fn.key)
            witness.append(
                f"{locate(graph, fn, use.line)} calls {use.dotted} "
                f"[{use.reason}]")
            findings.append(Finding(
                file=module_file(graph, entry),
                line=entry.line, col=0, code="ARCH101",
                message=(
                    f"protocol entry point {entry.key} transitively "
                    f"reaches forbidden source {use.dotted} "
                    f"({use.reason}) at "
                    f"{locate(graph, fn, use.line)}"),
                witness=tuple(witness),
            ))
        for site in fn.calls:
            callee = cg.functions.get(site.callee)
            if callee is None or site.callee in parent:
                continue
            if _in_boundary(callee.module, boundaries):
                continue
            parent[site.callee] = (key, site.line)
            queue.append(site.callee)
    return findings
