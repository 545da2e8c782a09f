"""Shared AST utilities for the rule modules.

Everything here is position- and name-based: the passes trade flow
sensitivity for whole-tree coverage, so these helpers answer small
questions — "what is this expression's last identifier?", "is it a
lock?", "where is this node?", "which self attribute does this target
write?" — that the rule modules compose.
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.analysis.callgraph import CallGraph, FunctionInfo
    from repro.analysis.imports import ModuleGraph

__all__ = [
    "Pos", "terminal_name", "pos", "contains_await",
    "lockish", "method_selfname", "self_attr_target", "module_file",
    "locate", "witness_chain",
]

Pos = Tuple[int, int]

#: context-manager expressions treated as mutual-exclusion locks (CONC003
#: exemption, CONC004 tracking) by terminal identifier
_LOCKISH_RE = re.compile(r"lock|mutex|sem", re.IGNORECASE)


def terminal_name(node: ast.expr) -> Optional[str]:
    """Last identifier of a Name / dotted-attribute expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def pos(node: ast.AST) -> Pos:
    return (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))


def contains_await(node: ast.AST) -> bool:
    """Does this subtree suspend (await / async for / async with)?"""
    return any(isinstance(sub, (ast.Await, ast.AsyncFor, ast.AsyncWith))
               for sub in ast.walk(node))


def lockish(expr: ast.expr) -> bool:
    """Does this context-manager expression look like a lock?"""
    if isinstance(expr, ast.Call):
        expr = expr.func
    name = terminal_name(expr)
    return name is not None and bool(_LOCKISH_RE.search(name))


def method_selfname(fn: FunctionInfo) -> Optional[str]:
    """First parameter name if *fn* is an instance method, else None."""
    if "." not in fn.qualname:
        return None
    node = fn.node
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    if not node.args.args:
        return None
    return node.args.args[0].arg


def self_attr_target(target: ast.expr, selfname: str) -> Optional[str]:
    """``self.X`` / ``self.X[...]`` assignment target -> attribute name."""
    if isinstance(target, ast.Subscript):
        target = target.value
    if (isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == selfname):
        return target.attr
    return None


def module_file(graph: ModuleGraph, fn: FunctionInfo) -> str:
    module = graph.modules.get(fn.module)
    return str(module.path) if module else fn.module


def locate(graph: ModuleGraph, fn: FunctionInfo, line: int) -> str:
    return f"{module_file(graph, fn)}:{line}"


def witness_chain(graph: ModuleGraph, cg: CallGraph,
                  parent: Dict[str, Optional[Tuple[str, int]]],
                  key: str) -> List[str]:
    """Chain of "module:qualname (file:line)" from a BFS entry to *key*."""
    chain: List[Tuple[str, Optional[int]]] = []
    cursor: Optional[str] = key
    call_line: Optional[int] = None
    while cursor is not None:
        chain.append((cursor, call_line))
        step = parent[cursor]
        if step is None:
            cursor = None
        else:
            cursor, call_line = step
    chain.reverse()
    out = []
    for func_key, line in chain:
        fn = cg.functions[func_key]
        at = locate(graph, fn, line if line is not None else fn.line)
        out.append(f"{func_key} ({at})")
    return out
