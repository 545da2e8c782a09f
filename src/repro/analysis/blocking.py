"""CONC001 — blocking calls interprocedurally reachable from coroutines.

BFS over the call graph from every ``async def`` in the universe.
The callgraph already records each function's *direct forbidden uses*
with a reason; the subset that actually blocks the host thread (host
sleep, synchronous socket/file/subprocess I/O, console input) is what a
coroutine must never reach — ``asyncio.*`` and wall-clock *reads* are
fine on the realtime path and are excluded.

Unlike the arch purity pass (which reports at the entry point, because
the entry point owns the contract), findings here land on the **blocking
call site**: that is the line that must change — or carry the
``# noqa: CONC001`` — regardless of how many coroutines reach it.  Each
site is reported once, with the witness chain from the first (sorted)
coroutine that reaches it.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph
from repro.analysis.helpers import locate, module_file, witness_chain
from repro.analysis.imports import ModuleGraph
from repro.analysis.report import Finding

__all__ = ["check_blocking", "BLOCKING_REASONS"]

#: forbidden-use reasons (see the callgraph module) that block the event loop
BLOCKING_REASONS: Set[str] = {
    "host sleep", "socket I/O", "file I/O", "subprocess I/O",
    "console input",
}


def check_blocking(graph: ModuleGraph, cg: CallGraph) -> List[Finding]:
    entries = [cg.functions[key] for key in sorted(cg.functions)
               if isinstance(cg.functions[key].node, ast.AsyncFunctionDef)]
    findings: List[Finding] = []
    claimed: Set[Tuple[str, int, str]] = set()
    for entry in entries:
        parent: Dict[str, Optional[Tuple[str, int]]] = {entry.key: None}
        queue: List[str] = [entry.key]
        while queue:
            key = queue.pop(0)
            fn = cg.functions[key]
            for use in fn.forbidden:
                if use.reason not in BLOCKING_REASONS:
                    continue
                signature = (fn.key, use.line, use.dotted)
                if signature in claimed:
                    continue
                claimed.add(signature)
                witness = witness_chain(graph, cg, parent, fn.key)
                witness.append(
                    f"{locate(graph, fn, use.line)} calls {use.dotted} "
                    f"[{use.reason}]")
                findings.append(Finding(
                    file=module_file(graph, fn),
                    line=use.line, col=0, code="CONC001",
                    message=(
                        f"blocking call {use.dotted} ({use.reason}) is "
                        f"reachable from async def {entry.key}; it stalls "
                        "the event loop for every coroutine on it"),
                    witness=tuple(witness),
                ))
            for site in fn.calls:
                callee = cg.functions.get(site.callee)
                if callee is None or site.callee in parent:
                    continue
                parent[site.callee] = (key, site.line)
                queue.append(site.callee)
    return findings
