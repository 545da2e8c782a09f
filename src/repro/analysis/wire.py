"""Pass 3 — wire-safety (ARCH201–ARCH205).

Enumerates the message dataclasses in the contract's ``message_modules``
(plus ``extra_messages``) and checks, tree-wide:

* ARCH201 — every message type that is *constructed* somewhere has a
  registered handler: an ``isinstance(x, T)`` (or tuple-of-types) test
  inside some contract-named handler method, or a ``T: handler`` entry of
  a class-level dispatch dict next to one.  Messages that are never
  constructed need no handler; contract ``components`` (plain-data types
  that ride *inside* message fields, e.g. a dependency context) are
  plain-checked like messages but exempt from handler registration.
* ARCH202 — inside an ``isinstance(message, T)`` branch of a handler (or
  the handler a dispatch dict maps ``T`` to), every attribute read on the
  narrowed variable exists on ``T`` (fields, methods, or properties).
* ARCH203 — every field annotation is plain data: ``None/bool/int/float/
  str/bytes``, enums and frozen plain dataclasses named in the contract's
  ``plain_classes``, and ``Optional/Union/Tuple/FrozenSet`` thereof.
  ``object``/``Any``, mutable containers, callables, and unknown classes
  are rejected — they either cannot be serialized or would ship a shared
  mutable reference between processes.
* ARCH204 — every construction site passes only known field names and no
  more positionals than the dataclass defines.
* ARCH205 — codec/handler conformance (only when the contract names
  ``codec_modules``): every message some handler dispatches on must be
  registered with the wire codec (or it cannot cross a real TCP link),
  and every *message* registered with the codec must have a handler (or
  a decoded frame would crash the dispatch arm).  Contract
  ``components`` and non-message plain classes may be registered freely
  — they ride inside message fields and are never dispatched.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.contract import ArchContract
from repro.analysis.helpers import dataclass_keywords, terminal_name
from repro.analysis.imports import Module, ModuleGraph
from repro.analysis.report import Finding

__all__ = ["check_wire", "MessageType"]


_PLAIN_ATOMS: Set[str] = {"None", "bool", "int", "float", "str", "bytes"}

_PLAIN_CONTAINERS: Set[str] = {"Tuple", "tuple", "FrozenSet", "frozenset"}

_WRAPPERS: Set[str] = {"Optional", "Union"}

_REJECT_CONTAINERS: Set[str] = {
    "List", "list", "Dict", "dict", "Set", "set", "Deque", "deque",
    "MutableMapping", "MutableSequence", "MutableSet", "DefaultDict",
    "OrderedDict", "bytearray", "Counter",
}


@dataclass
class MessageType:
    """One message dataclass: its fields and non-field attributes."""

    module: str
    name: str
    node: ast.ClassDef
    fields: Dict[str, Optional[ast.expr]] = field(default_factory=dict)
    methods: Set[str] = field(default_factory=set)
    positional_max: int = 0


def check_wire(graph: ModuleGraph,
               contract: ArchContract) -> List[Finding]:
    messages = _collect_messages(graph, contract)
    if not messages:
        return []
    component_names = {entry.partition(":")[2]
                       for entry in contract.components}
    aliases = _collect_aliases(graph, messages)
    findings: List[Finding] = []
    findings.extend(_check_plain_fields(graph, contract, messages, aliases))
    handlers = _collect_handlers(graph, contract, messages)
    constructed = _collect_constructions(graph, messages, findings)
    findings.extend(_check_missing_handlers(
        graph, messages, handlers, constructed - component_names))
    findings.extend(_check_handler_field_access(graph, contract, messages))
    findings.extend(_check_codec_conformance(
        graph, contract, messages, handlers, component_names))
    return findings


# -- message enumeration ----------------------------------------------------

def _collect_messages(graph: ModuleGraph,
                      contract: ArchContract) -> Dict[str, MessageType]:
    """name -> MessageType.  Message names are treated as globally unique
    across the declared message modules (they are the wire vocabulary)."""
    wanted_extra: Dict[str, Set[str]] = {}
    for entry in contract.extra_messages + contract.components:
        mod, _, cls = entry.partition(":")
        wanted_extra.setdefault(mod, set()).add(cls)
    messages: Dict[str, MessageType] = {}
    for mod_name in sorted(graph.modules):
        module = graph.modules[mod_name]
        take_all = mod_name in contract.message_modules
        take_some = wanted_extra.get(mod_name, set())
        if not take_all and not take_some:
            continue
        for stmt in module.tree.body:
            if not isinstance(stmt, ast.ClassDef):
                continue
            if not take_all and stmt.name not in take_some:
                continue
            if dataclass_keywords(stmt) is None:
                continue
            if stmt.name.startswith("_") and not take_all and \
                    stmt.name not in take_some:
                continue
            messages[stmt.name] = _parse_message(mod_name, stmt)
    return messages


def _parse_message(module: str, node: ast.ClassDef) -> MessageType:
    msg = MessageType(module=module, name=node.name, node=node)
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name):
            annotation = stmt.annotation
            if _is_classvar(annotation):
                continue
            msg.fields[stmt.target.id] = annotation
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            msg.methods.add(stmt.name)
    msg.positional_max = len(msg.fields)
    return msg


def _is_classvar(annotation: ast.expr) -> bool:
    return (isinstance(annotation, ast.Subscript)
            and terminal_name(annotation.value) == "ClassVar")


# -- ARCH203: plain-data fields ---------------------------------------------

def _collect_aliases(graph: ModuleGraph,
                     messages: Dict[str, MessageType]
                     ) -> Dict[str, Dict[str, ast.expr]]:
    """Module-level type aliases (``Stamp = Union[...]``) per message
    module, so annotations may name them and still be checked
    structurally."""
    out: Dict[str, Dict[str, ast.expr]] = {}
    for mod_name in sorted({m.module for m in messages.values()}):
        module = graph.modules[mod_name]
        table: Dict[str, ast.expr] = {}
        for stmt in module.tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
                    isinstance(stmt.targets[0], ast.Name) and \
                    isinstance(stmt.value, (ast.Subscript, ast.Name,
                                            ast.Attribute, ast.BinOp)):
                table[stmt.targets[0].id] = stmt.value
        out[mod_name] = table
    return out


def _check_plain_fields(graph: ModuleGraph, contract: ArchContract,
                        messages: Dict[str, MessageType],
                        aliases: Dict[str, Dict[str, ast.expr]]
                        ) -> List[Finding]:
    plain_classes = set(contract.plain_classes) | set(messages)
    findings = []
    for name in sorted(messages):
        msg = messages[name]
        module = graph.modules[msg.module]
        for field_name in msg.fields:
            annotation = msg.fields[field_name]
            bad = _non_plain(annotation, plain_classes,
                             aliases.get(msg.module, {}))
            if bad is not None:
                findings.append(Finding(
                    file=str(module.path),
                    line=annotation.lineno if annotation else msg.node.lineno,
                    col=0, code="ARCH203",
                    message=(
                        f"message {name}.{field_name} has non-plain-data "
                        f"annotation ({bad}); wire payloads must be "
                        "immutable plain data"),
                ))
    return findings


def _non_plain(annotation: Optional[ast.expr], plain_classes: Set[str],
               aliases: Dict[str, ast.expr],
               depth: int = 0) -> Optional[str]:
    """None if plain; otherwise a short description of the offending part."""
    if depth > 8:
        return "alias expansion too deep (cyclic alias?)"
    if annotation is None:
        return "missing annotation"
    if isinstance(annotation, ast.Constant):
        if annotation.value is None:
            return None
        if isinstance(annotation.value, str):
            try:
                parsed = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return f"unparseable annotation {annotation.value!r}"
            return _non_plain(parsed, plain_classes, aliases, depth + 1)
        if annotation.value is Ellipsis:
            return None
        return f"unsupported constant {annotation.value!r}"
    if isinstance(annotation, ast.Name):
        name = annotation.id
        if name in _PLAIN_ATOMS or name in plain_classes:
            return None
        if name in _REJECT_CONTAINERS:
            return f"mutable container {name}"
        if name in ("object", "Any"):
            return f"opaque type {name}"
        if name in _PLAIN_CONTAINERS:
            return None  # bare tuple/frozenset
        if name in aliases:
            return _non_plain(aliases[name], plain_classes, aliases,
                              depth + 1)
        return f"unknown type {name}"
    if isinstance(annotation, ast.Attribute):
        # typing.Any / module-qualified names: judge by the terminal name
        return _non_plain(ast.Name(id=annotation.attr), plain_classes,
                          aliases, depth + 1)
    if isinstance(annotation, ast.Subscript):
        head_name = terminal_name(annotation.value)
        args = annotation.slice
        elements = list(args.elts) if isinstance(args, ast.Tuple) else [args]
        if head_name in _WRAPPERS or head_name in _PLAIN_CONTAINERS:
            for element in elements:
                bad = _non_plain(element, plain_classes, aliases, depth + 1)
                if bad is not None:
                    return bad
            return None
        if head_name in _REJECT_CONTAINERS:
            return f"mutable container {head_name}"
        return f"unknown generic {head_name}"
    if isinstance(annotation, ast.BinOp) and isinstance(
            annotation.op, ast.BitOr):  # X | Y unions
        return (_non_plain(annotation.left, plain_classes, aliases, depth + 1)
                or _non_plain(annotation.right, plain_classes, aliases,
                              depth + 1))
    return "unsupported annotation form"


# -- handler discovery ------------------------------------------------------

def _handler_methods(graph: ModuleGraph, contract: ArchContract
                     ) -> List[Tuple[Module, ast.AST, ast.ClassDef]]:
    """All (module, method-node, its class) whose name is a contract
    handler method."""
    out = []
    for mod_name in sorted(graph.modules):
        module = graph.modules[mod_name]
        for stmt in module.tree.body:
            if not isinstance(stmt, ast.ClassDef):
                continue
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and sub.name in contract.handler_methods:
                    out.append((module, sub, stmt))
    return out


def _table_arms(graph: ModuleGraph, contract: ArchContract,
                messages: Dict[str, MessageType]
                ) -> List[Tuple[Module, MessageType, Optional[str], ast.AST]]:
    """The table form of the isinstance ladder: (module, message, narrowed
    variable, handler node) per ``T: handler`` entry of a dict in the body
    of a class with a handler method.  The handler — a lambda, or a method
    of that class named in the dict — narrows its last parameter to T."""
    arms = []
    classes = {id(cls): (module, cls)
               for module, _, cls in _handler_methods(graph, contract)}
    for module, cls in classes.values():
        methods = {sub.name: sub for sub in cls.body
                   if isinstance(sub, ast.FunctionDef)}
        for stmt in cls.body:
            table = getattr(stmt, "value", None)
            if not isinstance(table, ast.Dict):
                continue
            for key, value in zip(table.keys, table.values):
                msg = messages.get(terminal_name(key))
                handler = methods.get(getattr(value, "id", None), value)
                params = getattr(getattr(handler, "args", None), "args", None)
                if msg is not None:
                    arms.append((module, msg,
                                 params[-1].arg if params else None, handler))
    return arms


def _isinstance_targets(call: ast.Call,
                        messages: Dict[str, MessageType]) -> List[str]:
    """Message names tested by an isinstance(x, T) / isinstance(x, (T, U))."""
    if not (isinstance(call.func, ast.Name)
            and call.func.id == "isinstance" and len(call.args) == 2):
        return []
    spec = call.args[1]
    candidates = spec.elts if isinstance(spec, ast.Tuple) else [spec]
    names = []
    for candidate in candidates:
        name = terminal_name(candidate)
        if name in messages:
            names.append(name)
    return names


def _collect_handlers(graph: ModuleGraph, contract: ArchContract,
                      messages: Dict[str, MessageType]) -> Set[str]:
    handled: Set[str] = set()
    for module, method, _ in _handler_methods(graph, contract):
        for node in ast.walk(method):
            if isinstance(node, ast.Call):
                handled.update(_isinstance_targets(node, messages))
    handled.update(msg.name for _, msg, _, _ in
                   _table_arms(graph, contract, messages))
    return handled


# -- construction sites (ARCH201 input + ARCH204) ---------------------------

def _collect_constructions(graph: ModuleGraph,
                           messages: Dict[str, MessageType],
                           findings: List[Finding]) -> Set[str]:
    constructed: Set[str] = set()
    for mod_name in sorted(graph.modules):
        module = graph.modules[mod_name]
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = terminal_name(node.func)
            msg = messages.get(name) if name else None
            if msg is None:
                continue
            constructed.add(msg.name)
            findings.extend(_check_construction(module, node, msg))
    return constructed


def _check_construction(module: Module, node: ast.Call,
                        msg: MessageType) -> List[Finding]:
    findings = []
    if len(node.args) > msg.positional_max:
        findings.append(Finding(
            file=str(module.path), line=node.lineno, col=0, code="ARCH204",
            message=(
                f"{msg.name}(...) called with {len(node.args)} positional "
                f"arguments but the message defines "
                f"{msg.positional_max} field(s)"),
        ))
    for kw in node.keywords:
        if kw.arg is None:
            continue  # **kwargs: opaque, let runtime police it
        if kw.arg not in msg.fields:
            findings.append(Finding(
                file=str(module.path), line=node.lineno, col=0, code="ARCH204",
                message=(
                    f"{msg.name}(...) called with unknown keyword "
                    f"{kw.arg!r}; fields are "
                    f"{sorted(msg.fields)}"),
            ))
    return findings


def _check_missing_handlers(graph: ModuleGraph,
                            messages: Dict[str, MessageType],
                            handled: Set[str],
                            constructed: Set[str]) -> List[Finding]:
    findings = []
    for name in sorted(constructed - handled):
        msg = messages[name]
        module = graph.modules[msg.module]
        findings.append(Finding(
            file=str(module.path), line=msg.node.lineno, col=0, code="ARCH201",
            message=(
                f"message {name} is constructed but no handler method "
                f"tests isinstance(..., {name}); it would be dropped or "
                "crash the dispatch arm"),
        ))
    return findings


# -- ARCH202: field access inside narrowed branches -------------------------

#: attributes that exist on every dataclass instance
_UNIVERSAL_ATTRS: Set[str] = {
    "__class__", "__dict__", "__doc__", "__module__", "__dataclass_fields__",
}


def _check_handler_field_access(
        graph: ModuleGraph, contract: ArchContract,
        messages: Dict[str, MessageType]) -> List[Finding]:
    findings: List[Finding] = []
    for module, method, _ in _handler_methods(graph, contract):
        _scan_branches(module, method, messages, findings)
    for module, msg, var, handler in _table_arms(graph, contract, messages):
        if var is not None:
            _check_access(module, handler, var, msg, findings)
    return findings


def _scan_branches(module: Module, node: ast.AST,
                   messages: Dict[str, MessageType],
                   findings: List[Finding]) -> None:
    """Walk the handler body; inside each `if isinstance(v, T)` branch,
    check attribute reads on `v` against T's fields (single-type tests
    only: tuple tests narrow to a union, which we skip)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.If):
            narrowed = _narrowing(child.test, messages)
            if narrowed is not None:
                var, msg = narrowed
                for stmt in child.body:
                    _check_access(module, stmt, var, msg, findings)
                    _scan_branches(module, stmt, messages, findings)
            else:
                for stmt in child.body:
                    _scan_branches(module, stmt, messages, findings)
            for stmt in child.orelse:
                _scan_branches(module, stmt, messages, findings)
        else:
            _scan_branches(module, child, messages, findings)


def _narrowing(test: ast.expr, messages: Dict[str, MessageType]
               ) -> Optional[Tuple[str, MessageType]]:
    """(variable name, message) if test is isinstance(v, SingleMessage)."""
    call = test
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And) and \
            test.values:
        call = test.values[0]
    if not isinstance(call, ast.Call):
        return None
    targets = _isinstance_targets(call, messages)
    if len(targets) != 1:
        return None
    var = call.args[0]
    if not isinstance(var, ast.Name):
        return None
    return var.id, messages[targets[0]]


def _check_access(module: Module, node: ast.AST, var: str,
                  msg: MessageType, findings: List[Finding]) -> None:
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Attribute):
            continue
        if not (isinstance(sub.value, ast.Name) and sub.value.id == var):
            continue
        attr = sub.attr
        if attr in msg.fields or attr in msg.methods or \
                attr in _UNIVERSAL_ATTRS or attr.startswith("__"):
            continue
        findings.append(Finding(
            file=str(module.path), line=sub.lineno, col=0, code="ARCH202",
            message=(
                f"handler accesses {var}.{attr} inside an "
                f"isinstance(..., {msg.name}) branch, but {msg.name} has "
                f"no such field (fields: {sorted(msg.fields)})"),
        ))


# -- ARCH205: codec/handler conformance --------------------------------------

def _collect_codec_registrations(
        graph: ModuleGraph, contract: ArchContract
        ) -> Dict[str, Tuple[Module, int]]:
    """Class name -> (codec module, line) for every top-level
    ``register(Name)`` / ``codec.register(Name)`` call in the contract's
    codec modules."""
    registered: Dict[str, Tuple[Module, int]] = {}
    for mod_name in contract.codec_modules:
        module = graph.modules.get(mod_name)
        if module is None:
            continue
        for stmt in module.tree.body:
            if not (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Call)):
                continue
            call = stmt.value
            if terminal_name(call.func) != "register" or \
                    len(call.args) != 1:
                continue
            name = terminal_name(call.args[0])
            if name is not None:
                registered[name] = (module, call.lineno)
    return registered


def _check_codec_conformance(graph: ModuleGraph, contract: ArchContract,
                             messages: Dict[str, MessageType],
                             handled: Set[str],
                             component_names: Set[str]) -> List[Finding]:
    if not contract.codec_modules:
        return []
    registered = _collect_codec_registrations(graph, contract)
    findings: List[Finding] = []
    # every dispatched message must be encodable
    for name in sorted(handled - set(registered)):
        msg = messages[name]
        module = graph.modules[msg.module]
        findings.append(Finding(
            file=str(module.path), line=msg.node.lineno, col=0, code="ARCH205",
            message=(
                f"message {name} is dispatched by a handler but never "
                f"registered with the wire codec "
                f"({', '.join(contract.codec_modules)}); it cannot cross "
                "a real transport link"),
        ))
    # every registered *message* must be dispatchable (components and
    # plain field classes ride inside messages and are exempt)
    for name in sorted(set(registered) & set(messages)
                       - handled - component_names):
        module, line = registered[name]
        findings.append(Finding(
            file=str(module.path), line=line, col=0, code="ARCH205",
            message=(
                f"message {name} is registered with the wire codec but no "
                f"handler method tests isinstance(..., {name}); a decoded "
                "frame would crash the dispatch arm"),
        ))
    return findings
