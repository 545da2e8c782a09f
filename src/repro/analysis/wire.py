"""Pass 3 — handler/message conformance (ARCH202, ARCH204).

The messages are the keys of every class-level ``_HANDLERS`` table
(``Process.receive``'s one dispatch form) naming a top-level dataclass:

* ARCH202 — a row's handler (a lambda, the class's method the row names
  or a lambda hands the message to) reads only the message's fields,
  methods or properties.
* ARCH204 — a construction site passes only known field names and no
  more positionals than the message has fields.

Plain data is ``codec.register()``'s check at import, and "every
registered message has a handler" a test (``tests/net/test_codec.py``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Set, Tuple

from repro.analysis.helpers import dataclass_keywords, terminal_name
from repro.analysis.imports import Module, ModuleGraph
from repro.analysis.report import Finding

__all__ = ["check_wire", "MessageType", "TABLE_NAME"]

#: the class attribute ``Process.receive`` dispatches on
TABLE_NAME = "_HANDLERS"

@dataclass
class MessageType:
    """One message dataclass: its fields and non-field attributes."""

    name: str
    fields: List[str]
    methods: Set[str]


def check_wire(graph: ModuleGraph) -> List[Finding]:
    arms = list(_table_arms(graph))
    classes = _dataclasses(graph)
    messages = {arm[1]: classes[arm[1]] for arm in arms if arm[1] in classes}
    findings: List[Finding] = []
    for module, name, handler, var in arms:
        if name in messages:
            _check_access(module, handler, var, messages[name], findings)
    for _, module in sorted(graph.modules.items()):
        for node in module.nodes:
            if isinstance(node, ast.Call):
                msg = messages.get(terminal_name(node.func))
                if msg is not None:
                    _check_construction(module, node, msg, findings)
    return findings


def _table_arms(graph: ModuleGraph
                ) -> Iterator[Tuple[Module, str, ast.AST, str]]:
    """(module, key, handler, its message parameter) per ``T: handler`` row
    of every class-level ``_HANDLERS`` dict (``**Base._HANDLERS`` rows are
    the base's own), plus the method a lambda row hands the message to."""
    for _, module in sorted(graph.modules.items()):
        for cls in module.tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = {sub.name: sub for sub in cls.body
                       if isinstance(sub, ast.FunctionDef)}
            for stmt in cls.body:  # `_HANDLERS = {...}`, annotated or not
                targets = getattr(stmt, "targets",
                                  [getattr(stmt, "target", None)])
                table = getattr(stmt, "value", None)
                if not (isinstance(table, ast.Dict) and any(
                        terminal_name(t) == TABLE_NAME for t in targets)):
                    continue
                for key, value in zip(table.keys, table.values):
                    name = terminal_name(key) if key is not None else None
                    handler = methods.get(getattr(value, "id", None), value)
                    params = getattr(getattr(handler, "args", None), "args",
                                     None)
                    if name is None or not params:
                        continue
                    yield module, name, handler, params[-1].arg
                    if isinstance(handler, ast.Lambda):
                        for target, var in _delegated(handler, methods):
                            yield module, name, target, var


def _delegated(row: ast.Lambda, methods: Dict[str, ast.FunctionDef]
               ) -> Iterator[Tuple[ast.FunctionDef, str]]:
    """``lambda self, sender, m: self.method(..., m, ...)`` -> the method
    and its parameter in ``m``'s position."""
    call, var = row.body, row.args.args[-1].arg
    target = methods.get(terminal_name(getattr(call, "func", None)))
    for pos, arg in enumerate(getattr(call, "args", ())):
        if target is not None and getattr(arg, "id", None) == var and \
                pos + 1 < len(target.args.args):
            yield target, target.args.args[pos + 1].arg


def _dataclasses(graph: ModuleGraph) -> Dict[str, MessageType]:
    out: Dict[str, MessageType] = {}
    for _, module in sorted(graph.modules.items()):
        for node in module.tree.body:
            if not (isinstance(node, ast.ClassDef)
                    and dataclass_keywords(node) is not None):
                continue
            msg = out[node.name] = MessageType(node.name, [], set())
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                        stmt.target, ast.Name) and terminal_name(getattr(
                            stmt.annotation, "value", None)) != "ClassVar":
                    msg.fields.append(stmt.target.id)
                elif isinstance(stmt, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    msg.methods.add(stmt.name)
    return out


def _finding(module: Module, line: int, code: str, message: str) -> Finding:
    return Finding(file=str(module.path), line=line, col=0, code=code,
                   message=message)


def _check_construction(module: Module, node: ast.Call, msg: MessageType,
                        findings: List[Finding]) -> None:
    if len(node.args) > len(msg.fields):
        findings.append(_finding(
            module, node.lineno, "ARCH204",
            f"{msg.name}(...) called with {len(node.args)} positional "
            f"arguments but the message defines {len(msg.fields)} field(s)"))
    for kw in node.keywords:
        if kw.arg is not None and kw.arg not in msg.fields:
            findings.append(_finding(
                module, node.lineno, "ARCH204",
                f"{msg.name}(...) called with unknown keyword {kw.arg!r}; "
                f"fields are {sorted(msg.fields)}"))


def _check_access(module: Module, handler: ast.AST, var: str,
                  msg: MessageType, findings: List[Finding]) -> None:
    for sub in ast.walk(handler):
        if isinstance(sub, ast.Attribute) and isinstance(
                sub.value, ast.Name) and sub.value.id == var and not (
                    sub.attr in msg.fields or sub.attr in msg.methods
                    or sub.attr.startswith("__")):
            findings.append(_finding(
                module, sub.lineno, "ARCH202",
                f"the {msg.name} handler accesses {var}.{sub.attr}, but "
                f"{msg.name} has no such field (fields: "
                f"{sorted(msg.fields)})"))
