"""CONC002 / CONC005 / CONC006 — coroutine and task lifecycle hygiene.

Three rules about the *lifetime* of asynchronous work:

* **CONC002** (fire-and-forget): a statement-position call to an
  in-universe ``async def`` that is never awaited, or a
  ``create_task()`` / ``ensure_future()`` whose result is discarded (the
  loop keeps only a weak reference, so the GC can kill the task
  mid-flight).
* **CONC005** (swallowed cancellation): a ``try`` whose body suspends,
  with a handler that catches ``CancelledError`` (bare ``except:``,
  ``except BaseException:``, or an explicit clause) and never re-raises.
  ``except Exception`` is exempt — since Python 3.8 ``CancelledError``
  derives from ``BaseException`` and sails past it.
* **CONC006** (unowned task): ``self.X = create_task(...)`` /
  ``await start_server(...)`` in a class none of whose
  close/stop/shutdown-shaped methods (own or inherited) ever touch
  ``self.X`` again — nothing can cancel or await the work on the way
  down.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set, Tuple

from repro.analysis.callgraph import CallGraph, FunctionInfo
from repro.analysis.helpers import (
    contains_await, method_selfname, module_file, self_attr_target,
    terminal_name)
from repro.analysis.imports import ModuleGraph
from repro.analysis.report import Finding

__all__ = ["check_fire_and_forget", "check_cancellation",
           "check_task_lifecycle"]

#: call names that spawn a task whose handle must be retained (CONC002)
_SPAWN_NAMES = {"create_task", "ensure_future"}

#: exception names that (also) catch asyncio.CancelledError (CONC005)
_CANCELLED_NAMES = {"CancelledError", "BaseException"}

#: call names whose result on ``self`` needs a closer (CONC006)
_TASK_SOURCES = {"create_task", "ensure_future", "start_server"}

#: method names recognised as a component's teardown path (CONC006)
_CLOSER_NAMES = {"close", "stop", "shutdown", "aclose", "cancel",
                 "terminate", "__aexit__", "__exit__", "__del__"}


# -- CONC002 -----------------------------------------------------------------

def check_fire_and_forget(graph: ModuleGraph,
                          cg: CallGraph) -> List[Finding]:
    async_keys = {key for key, fn in cg.functions.items()
                  if isinstance(fn.node, ast.AsyncFunctionDef)}
    findings: List[Finding] = []
    for key in sorted(cg.functions):
        fn = cg.functions[key]
        callees_by_line: Dict[int, Set[str]] = {}
        for site in fn.calls:
            callees_by_line.setdefault(site.line, set()).add(site.callee)
        for node in fn.nodes:
            if not (isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)):
                continue
            call = node.value
            name = terminal_name(call.func)
            if name in _SPAWN_NAMES:
                findings.append(Finding(
                    file=module_file(graph, fn), line=call.lineno,
                    col=0, code="CONC002",
                    message=(
                        f"the task returned by {name}() is discarded in "
                        f"{fn.key}; the event loop holds only a weak "
                        "reference, so the task can be garbage-collected "
                        "mid-flight — retain it and cancel it on close"),
                ))
                continue
            # call-edge lines are shared by every call on the line, so an
            # argument that is itself a call would alias the outer one
            # (asyncio.run(main()) must not flag main); skip those.
            arg_exprs = list(call.args) + [kw.value for kw in call.keywords]
            if any(isinstance(sub, ast.Call) for arg in arg_exprs
                   for sub in ast.walk(arg)):
                continue
            matches = sorted(
                callee for callee in callees_by_line.get(call.lineno, ())
                if callee in async_keys
                and cg.functions[callee].qualname.rsplit(".", 1)[-1] == name)
            if matches:
                findings.append(Finding(
                    file=module_file(graph, fn), line=call.lineno,
                    col=0, code="CONC002",
                    message=(
                        f"coroutine {matches[0]} is called but never "
                        f"awaited in {fn.key}; the coroutine object is "
                        "created and dropped, so its body never runs"),
                ))
    return findings


# -- CONC005 -----------------------------------------------------------------

def _swallows_cancelled(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    exprs = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    return any(terminal_name(expr) in _CANCELLED_NAMES for expr in exprs)


def check_cancellation(graph: ModuleGraph,
                       cg: CallGraph) -> List[Finding]:
    findings: List[Finding] = []
    for key in sorted(cg.functions):
        fn = cg.functions[key]
        for node in fn.nodes:
            if not isinstance(node, ast.Try):
                continue
            if not any(contains_await(stmt) for stmt in node.body):
                continue
            for handler in node.handlers:
                if not _swallows_cancelled(handler):
                    continue
                if any(isinstance(sub, ast.Raise) for stmt in handler.body
                       for sub in ast.walk(stmt)):
                    continue
                clause = ("bare except:" if handler.type is None
                          else f"except {ast.unparse(handler.type)}")
                findings.append(Finding(
                    file=module_file(graph, fn), line=handler.lineno,
                    col=0, code="CONC005",
                    message=(
                        f"{clause} around an await in {fn.key} swallows "
                        "asyncio.CancelledError, so cancellation (and "
                        "graceful shutdown) never completes; re-raise it "
                        "after cleanup or let it propagate"),
                ))
    return findings


# -- CONC006 -----------------------------------------------------------------

def _closer_keys(cg: CallGraph, cls: Tuple[str, str]) -> List[str]:
    """Function keys of close/stop-shaped methods, own class and bases."""
    keys: List[str] = []
    seen: Set[Tuple[str, str]] = set()
    queue = [cls]
    while queue:
        current = queue.pop(0)
        if current in seen:
            continue
        seen.add(current)
        info = cg.classes.get(current)
        if info is None:
            continue
        for name in sorted(info.methods):
            if name in _CLOSER_NAMES:
                keys.append(info.methods[name])
        queue.extend(info.resolved_bases)
    return keys


def _touches_attr(fn: FunctionInfo, attr: str) -> bool:
    selfname = method_selfname(fn) or "self"
    return any(
        isinstance(sub, ast.Attribute) and sub.attr == attr
        and isinstance(sub.value, ast.Name) and sub.value.id == selfname
        for sub in fn.nodes)


def check_task_lifecycle(graph: ModuleGraph,
                         cg: CallGraph) -> List[Finding]:
    findings: List[Finding] = []
    for cls_key in sorted(cg.classes):
        info = cg.classes[cls_key]
        spawns: List[Tuple[str, int, str, FunctionInfo]] = []
        for mname in sorted(info.methods):
            fn = cg.functions[info.methods[mname]]
            selfname = method_selfname(fn)
            if selfname is None:
                continue
            for node in fn.nodes:
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and \
                        node.value is not None:
                    targets, value = [node.target], node.value
                else:
                    continue
                if isinstance(value, ast.Await):
                    value = value.value
                if not (isinstance(value, ast.Call)
                        and terminal_name(value.func) in _TASK_SOURCES):
                    continue
                source = terminal_name(value.func) or ""
                for target in targets:
                    attr = self_attr_target(target, selfname)
                    if attr is not None:
                        spawns.append((attr, node.lineno, source, fn))
        if not spawns:
            continue
        closers = _closer_keys(cg, cls_key)
        for attr, line, source, fn in spawns:
            if any(_touches_attr(cg.functions[closer], attr)
                   for closer in closers):
                continue
            findings.append(Finding(
                file=module_file(graph, fn), line=line, col=0, code="CONC006",
                message=(
                    f"{info.name}.{attr} holds the result of {source}() "
                    f"but no close/stop/shutdown method of {info.name} "
                    "cancels or awaits it; the task outlives (or silently "
                    "dies with) its owner"),
            ))
    return findings
