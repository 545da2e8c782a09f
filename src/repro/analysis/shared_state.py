"""CONC003 / CONC004 — shared state across awaits, and lock ordering.

* **CONC003** (await-point atomicity): inside an ``async def`` method, a
  read of ``self.X`` followed by an ``await`` followed by a write of
  ``self.X`` — with no lock-shaped ``with``/``async with`` held — is a
  lost-update window: another coroutine of the same object runs at the
  suspension point and the write clobbers its effect.  Positions are
  compared lexically (read < await < write), the same bargain the arch
  purity pass strikes: flow-insensitive, whole-tree, cheap.
* **CONC004** (lock order): every ``with``/``async with`` whose context
  expression looks like a lock (identifier matching lock/mutex/sem)
  contributes acquisition-order edges while lexically nested; two
  functions acquiring the same pair in opposite orders is a deadlock one
  interleaving away.  Lock identity is name-based
  (``module:owner:expr``), so aliasing a lock under two names evades the
  pass — don't.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph, FunctionInfo
from repro.analysis.helpers import (
    Pos, locate, lockish, method_selfname, module_file, pos,
    self_attr_target)
from repro.analysis.imports import ModuleGraph
from repro.analysis.report import Finding

__all__ = ["check_await_atomicity", "check_lock_order"]


# -- CONC003 -----------------------------------------------------------------

class _AtomicityVisitor(ast.NodeVisitor):
    """Collect unlocked self-attr reads/writes and await positions.

    ``self.X += ...`` reads *and* writes, but flagging it would punish
    the common monotonic-counter idiom that is only racy against an
    await *between* two accesses — so AugAssign targets count as writes
    only, and the read that pairs with a later write must be explicit.
    """

    def __init__(self, selfname: str) -> None:
        self.selfname = selfname
        self.reads: Dict[str, List[Pos]] = {}
        self.writes: Dict[str, List[Pos]] = {}
        self.awaits: List[Pos] = []
        self._locked = 0

    # nested definitions have their own frames (and their own findings)
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    def _visit_with(self, node: "ast.With | ast.AsyncWith",
                    is_async: bool) -> None:
        if is_async:
            self.awaits.append(pos(node))
        locked = any(lockish(item.context_expr) for item in node.items)
        for item in node.items:
            self.visit(item)
        if locked:
            self._locked += 1
        for stmt in node.body:
            self.visit(stmt)
        if locked:
            self._locked -= 1

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node, is_async=False)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node, is_async=True)

    def visit_Await(self, node: ast.Await) -> None:
        self.awaits.append(pos(node))
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self.awaits.append(pos(node))
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        attr = self_attr_target(node.target, self.selfname)
        if attr is not None:
            if self._locked == 0:
                self.writes.setdefault(attr, []).append(pos(node))
            self.visit(node.value)
            return
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (isinstance(node.value, ast.Name)
                and node.value.id == self.selfname and self._locked == 0):
            bucket = (self.reads if isinstance(node.ctx, ast.Load)
                      else self.writes)
            bucket.setdefault(node.attr, []).append(pos(node))
        self.generic_visit(node)


def check_await_atomicity(graph: ModuleGraph,
                          cg: CallGraph) -> List[Finding]:
    findings: List[Finding] = []
    for key in sorted(cg.functions):
        fn = cg.functions[key]
        if not isinstance(fn.node, ast.AsyncFunctionDef):
            continue
        selfname = method_selfname(fn)
        if selfname is None:
            continue
        visitor = _AtomicityVisitor(selfname)
        for stmt in fn.node.body:
            visitor.visit(stmt)
        if not visitor.awaits:
            continue
        awaits = sorted(visitor.awaits)
        for attr in sorted(visitor.writes):
            reads = visitor.reads.get(attr)
            if not reads:
                continue
            first_read = min(reads)
            hit: Optional[Tuple[Pos, Pos]] = None
            for write in sorted(visitor.writes[attr]):
                between = [a for a in awaits if first_read < a < write]
                if first_read < write and between:
                    hit = (between[0], write)
                    break
            if hit is None:
                continue
            await_pos, write_pos = hit
            findings.append(Finding(
                file=module_file(graph, fn), line=write_pos[0],
                col=0, code="CONC003",
                message=(
                    f"self.{attr} is read (line {first_read[0]}) before "
                    f"and written (line {write_pos[0]}) after an await "
                    f"(line {await_pos[0]}) in {fn.key} with no lock held; "
                    "an interleaved coroutine's update is lost"),
                witness=(
                    f"{locate(graph, fn, first_read[0])} reads self.{attr}",
                    f"{locate(graph, fn, await_pos[0])} suspends",
                    f"{locate(graph, fn, write_pos[0])} writes self.{attr}",
                ),
            ))
    return findings


# -- CONC004 -----------------------------------------------------------------

class _LockOrderVisitor(ast.NodeVisitor):
    """Record (held, acquired) edges from lexically nested lock withs."""

    def __init__(self, lock_owner: str) -> None:
        self.lock_owner = lock_owner
        self.edges: List[Tuple[str, str, int]] = []
        self._held: List[str] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        acquired: List[str] = []
        for item in node.items:
            self.visit(item)
            if lockish(item.context_expr):
                lock_id = (f"{self.lock_owner}:"
                           f"{ast.unparse(item.context_expr)}")
                for held in self._held:
                    if held != lock_id:
                        self.edges.append((held, lock_id, node.lineno))
                self._held.append(lock_id)
                acquired.append(lock_id)
        for stmt in node.body:
            self.visit(stmt)
        for _ in acquired:
            self._held.pop()

    visit_With = _visit_with
    visit_AsyncWith = _visit_with


def check_lock_order(graph: ModuleGraph, cg: CallGraph) -> List[Finding]:
    # first witness per ordered (held, acquired) pair
    sightings: Dict[Tuple[str, str], Tuple[FunctionInfo, int]] = {}
    for key in sorted(cg.functions):
        fn = cg.functions[key]
        owner = fn.module + ":" + (
            fn.qualname.rsplit(".", 1)[0] if "." in fn.qualname else "")
        visitor = _LockOrderVisitor(owner)
        for stmt in fn.node.body:
            visitor.visit(stmt)
        for held, acquired, line in visitor.edges:
            sightings.setdefault((held, acquired), (fn, line))
    findings: List[Finding] = []
    reported: Set[Tuple[str, str]] = set()
    for (a, b) in sorted(sightings):
        if (b, a) not in sightings or (b, a) in reported:
            continue
        reported.add((a, b))
        fn_ab, line_ab = sightings[(a, b)]
        fn_ba, line_ba = sightings[(b, a)]
        short_a = a.rsplit(":", 1)[-1]
        short_b = b.rsplit(":", 1)[-1]
        findings.append(Finding(
            file=module_file(graph, fn_ab), line=line_ab, col=0,
            code="CONC004",
            message=(
                f"locks {short_a} and {short_b} are acquired in opposite "
                f"orders ({fn_ab.key} takes {short_a} then {short_b}; "
                f"{fn_ba.key} takes {short_b} then {short_a}); one unlucky "
                "interleaving deadlocks both coroutines"),
            witness=(
                f"{locate(graph, fn_ab, line_ab)} acquires {short_b} "
                f"while holding {short_a}",
                f"{locate(graph, fn_ba, line_ba)} acquires {short_a} "
                f"while holding {short_b}",
            ),
        ))
    return findings
