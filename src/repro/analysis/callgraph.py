"""Whole-program call graph over the parsed module universe.

Upgrade path from the SAT001/002 lints: those flag a forbidden call *where
it happens*; the purity and blocking passes must flag a protocol entry
point or coroutine that reaches one *transitively*.  That needs call
edges, so this module builds a best-effort static call graph:

* exact resolution for module-level functions, imported names, ``self``
  methods (with base-class lookup), and attribute chains whose types are
  recoverable from ``__init__`` assignments and annotations (including
  element types of ``List[X]`` / ``Dict[K, V]`` containers);
* function *references* passed as call arguments (callbacks) become edges
  too — the receiver will invoke them;
* nested ``def``/``lambda`` closures are folded into their enclosing
  function, since that is the scope whose purity they inherit;
* a bounded fallback: an unresolved ``x.m(...)`` resolves to ``m`` if
  exactly one class in the universe defines it and ``m`` is not a common
  container/builtin method name.

Alongside edges, each function records its *direct forbidden uses* (wall
clock, global RNG, entropy, threading/asyncio, sockets, files, environment)
so the purity pass is a pure reachability query.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.helpers import terminal_name
from repro.analysis.imports import Module, ModuleGraph, resolve_relative

__all__ = ["CallGraph", "FunctionInfo", "ClassInfo", "ForbiddenUse",
           "CallSite", "build_callgraph"]


# -- forbidden-source tables ------------------------------------------------

_FORBIDDEN_EXACT: Dict[str, str] = {
    "time.time": "wall clock", "time.time_ns": "wall clock",
    "time.monotonic": "wall clock", "time.monotonic_ns": "wall clock",
    "time.perf_counter": "wall clock", "time.perf_counter_ns": "wall clock",
    "time.clock": "wall clock", "time.sleep": "host sleep",
    "datetime.datetime.now": "wall clock",
    "datetime.datetime.utcnow": "wall clock",
    "datetime.datetime.today": "wall clock",
    "datetime.date.today": "wall clock",
    "os.urandom": "entropy", "uuid.uuid1": "entropy", "uuid.uuid4": "entropy",
    "os.system": "subprocess I/O", "os.popen": "subprocess I/O",
    "os.getenv": "environment", "os.environ": "environment",
    "io.open": "file I/O",
}

_FORBIDDEN_PREFIX: Dict[str, str] = {
    "random.": "global RNG", "secrets.": "entropy",
    "threading.": "host threads", "_thread.": "host threads",
    "multiprocessing.": "host processes", "concurrent.": "host concurrency",
    "asyncio.": "event loop", "socket.": "socket I/O",
    "subprocess.": "subprocess I/O",
}

#: exact dotted names exempt from the prefix families above
_FORBIDDEN_EXEMPT: Set[str] = {"random.Random", "random.SystemRandom"}

_FORBIDDEN_BUILTINS: Dict[str, str] = {
    "open": "file I/O", "input": "console input",
}

#: method names too generic for the unique-name fallback (container and
#: string methods would otherwise alias into repo classes)
_FALLBACK_STOPLIST: Set[str] = {
    "append", "appendleft", "add", "extend", "pop", "popleft", "remove",
    "discard", "clear", "get", "items", "keys", "values", "setdefault",
    "update", "sort", "index", "count", "insert", "join", "split", "strip",
    "startswith", "endswith", "format", "encode", "decode", "copy", "close",
    "read", "write", "cancel", "now", "timestamp", "send", "receive",
    "register", "run", "reset", "next", "put", "union", "intersection",
}

#: containers whose subscript / iteration yields the first type parameter
_ELEMENT_CONTAINERS: Set[str] = {
    "List", "list", "Tuple", "tuple", "Deque", "deque", "Sequence",
    "Iterable", "Iterator", "FrozenSet", "frozenset", "Set", "set",
}

#: mappings: subscript yields the *second* type parameter
_VALUE_CONTAINERS: Set[str] = {"Dict", "dict", "Mapping", "MutableMapping",
                               "DefaultDict", "OrderedDict"}


@dataclass(frozen=True)
class ForbiddenUse:
    line: int
    dotted: str
    reason: str


@dataclass(frozen=True)
class CallSite:
    callee: str     # function key "module:Qual.name"
    line: int


@dataclass
class FunctionInfo:
    key: str
    module: str
    qualname: str
    line: int
    node: ast.AST
    calls: List[CallSite] = field(default_factory=list)
    forbidden: List[ForbiddenUse] = field(default_factory=list)

    @cached_property
    def nodes(self) -> List[ast.AST]:
        """Every node of the body in ``ast.walk`` order: walked once,
        shared by the call-graph scan and every pass over functions."""
        return list(ast.walk(self.node))


@dataclass
class ClassInfo:
    module: str
    name: str
    node: ast.ClassDef
    base_exprs: List[ast.expr] = field(default_factory=list)
    resolved_bases: List[Tuple[str, str]] = field(default_factory=list)
    methods: Dict[str, str] = field(default_factory=dict)  # name -> func key
    attr_types: Dict[str, "TypeRef"] = field(default_factory=dict)


@dataclass(frozen=True)
class TypeRef:
    """A recovered static type: a universe class, possibly inside a
    container (so subscripting / iterating yields the class)."""

    cls: Tuple[str, str]        # (module, ClassName)
    container: bool = False


# symbol kinds: ("mod", module) | ("cls", (mod, name)) | ("func", key)
#             | ("extmod", dotted) | ("ext", dotted)
Sym = Tuple[str, object]


class CallGraph:
    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[Tuple[str, str], ClassInfo] = {}
        self.symbols: Dict[str, Dict[str, Sym]] = {}
        self.module_names: Set[str] = set()
        self._methods_by_name: Dict[str, List[str]] = {}
        self._module_funcs_by_name: Dict[str, List[str]] = {}

    # -- method resolution -------------------------------------------------

    def lookup_method(self, cls: Tuple[str, str],
                      name: str) -> Optional[str]:
        """BFS over the in-universe base-class graph, own class first."""
        seen: Set[Tuple[str, str]] = set()
        queue = [cls]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            hit = info.methods.get(name)
            if hit is not None:
                return hit
            queue.extend(info.resolved_bases)
        return None

    def lookup_attr_type(self, cls: Tuple[str, str],
                         attr: str) -> Optional[TypeRef]:
        seen: Set[Tuple[str, str]] = set()
        queue = [cls]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            hit = info.attr_types.get(attr)
            if hit is not None:
                return hit
            queue.extend(info.resolved_bases)
        return None

    def unique_method(self, name: str) -> Optional[str]:
        if name in _FALLBACK_STOPLIST:
            return None
        hits = self._methods_by_name.get(name, [])
        return hits[0] if len(hits) == 1 else None

    def unique_module_function(self, name: str) -> Optional[str]:
        if name in _FALLBACK_STOPLIST:
            return None
        hits = self._module_funcs_by_name.get(name, [])
        return hits[0] if len(hits) == 1 else None


def build_callgraph(graph: ModuleGraph) -> CallGraph:
    cg = CallGraph()
    cg.module_names = set(graph.modules)
    for name, module in sorted(graph.modules.items()):
        _register_module(cg, module)
    for name, module in sorted(graph.modules.items()):
        cg.symbols[name] = _build_symbols(cg, module)
    for key in sorted(cg.classes):
        _resolve_bases(cg, cg.classes[key])
    for key in sorted(cg.classes):
        _collect_attr_types(cg, cg.classes[key])
    for name, module in sorted(graph.modules.items()):
        _scan_bodies(cg, module)
    return cg


# -- registration -----------------------------------------------------------

def _register_module(cg: CallGraph, module: Module) -> None:
    for stmt in module.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            key = f"{module.name}:{stmt.name}"
            cg.functions[key] = FunctionInfo(
                key=key, module=module.name, qualname=stmt.name,
                line=stmt.lineno, node=stmt)
            cg._module_funcs_by_name.setdefault(stmt.name, []).append(key)
        elif isinstance(stmt, ast.ClassDef):
            info = ClassInfo(module=module.name, name=stmt.name, node=stmt,
                             base_exprs=list(stmt.bases))
            cg.classes[(module.name, stmt.name)] = info
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    key = f"{module.name}:{stmt.name}.{sub.name}"
                    cg.functions[key] = FunctionInfo(
                        key=key, module=module.name,
                        qualname=f"{stmt.name}.{sub.name}",
                        line=sub.lineno, node=sub)
                    info.methods[sub.name] = key
                    cg._methods_by_name.setdefault(sub.name, []).append(key)


def _build_symbols(cg: CallGraph, module: Module) -> Dict[str, Sym]:
    symbols: Dict[str, Sym] = {}
    for node in module.nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                top = alias.name if alias.asname else alias.name.split(".")[0]
                if _in_universe(cg, top):
                    symbols[bound] = ("mod", top)
                else:
                    symbols[bound] = ("extmod", top)
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if base is None or node.level:
                base = resolve_relative(
                    module.name, module.path.name == "__init__.py",
                    node.level, node.module)
                if base is None:
                    continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                target_mod = f"{base}.{alias.name}"
                if _in_universe(cg, target_mod):
                    symbols[bound] = ("mod", target_mod)
                elif (base, alias.name) in cg.classes:
                    symbols[bound] = ("cls", (base, alias.name))
                elif f"{base}:{alias.name}" in cg.functions:
                    symbols[bound] = ("func", f"{base}:{alias.name}")
                elif _in_universe(cg, base):
                    # re-exported or data name from a universe module: try
                    # to chase one re-export hop via that module's symbols
                    symbols[bound] = ("reexport", (base, alias.name))
                else:
                    symbols[bound] = ("ext", f"{base}.{alias.name}")

    # locally defined names shadow imports
    for (mod, name), info in cg.classes.items():
        if mod == module.name:
            symbols[name] = ("cls", (mod, name))
    for key, fn in cg.functions.items():
        if fn.module == module.name and "." not in fn.qualname:
            symbols[fn.qualname] = ("func", key)
    return symbols


def _in_universe(cg: CallGraph, module_name: str) -> bool:
    return module_name in cg.module_names


def _resolve_symbol(cg: CallGraph, module: str, name: str,
                    depth: int = 0) -> Optional[Sym]:
    sym = cg.symbols.get(module, {}).get(name)
    if sym is None:
        return None
    if sym[0] == "reexport" and depth < 3:
        base, target = sym[1]  # type: ignore[misc]
        return _resolve_symbol(cg, base, target, depth + 1)
    return sym


def _resolve_bases(cg: CallGraph, info: ClassInfo) -> None:
    for base in info.base_exprs:
        resolved = _resolve_class_expr(cg, info.module, base)
        if resolved is not None:
            info.resolved_bases.append(resolved)


def _resolve_class_expr(cg: CallGraph, module: str,
                        expr: ast.expr) -> Optional[Tuple[str, str]]:
    if isinstance(expr, ast.Name):
        sym = _resolve_symbol(cg, module, expr.id)
        if sym and sym[0] == "cls":
            return sym[1]  # type: ignore[return-value]
        if (module, expr.id) in cg.classes:
            return (module, expr.id)
        return None
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        sym = _resolve_symbol(cg, module, expr.value.id)
        if sym and sym[0] == "mod":
            candidate = (sym[1], expr.attr)
            if candidate in cg.classes:
                return candidate  # type: ignore[return-value]
    return None


# -- annotations and attribute types ---------------------------------------

def _annotation_class(cg: CallGraph, module: str,
                      node: Optional[ast.expr]) -> Optional[TypeRef]:
    """Recover a TypeRef from an annotation expression (best effort)."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        head_name = terminal_name(node.value)
        args = node.slice
        elements = args.elts if isinstance(args, ast.Tuple) else [args]
        if head_name == "Optional" and elements:
            return _annotation_class(cg, module, elements[0])
        if head_name == "Union":
            for element in elements:
                ref = _annotation_class(cg, module, element)
                if ref is not None:
                    return ref
            return None
        if head_name in _ELEMENT_CONTAINERS and elements:
            inner = _annotation_class(cg, module, elements[0])
            if inner is not None:
                return TypeRef(cls=inner.cls, container=True)
            return None
        if head_name in _VALUE_CONTAINERS and len(elements) >= 2:
            inner = _annotation_class(cg, module, elements[1])
            if inner is not None:
                return TypeRef(cls=inner.cls, container=True)
            return None
        return None
    resolved = _resolve_class_expr(cg, module, node)
    if resolved is not None:
        return TypeRef(cls=resolved)
    return None


def _collect_attr_types(cg: CallGraph, info: ClassInfo) -> None:
    module = info.module
    # class-level annotations: "x: T" / "x: T = ..."
    for stmt in info.node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name):
            ref = _annotation_class(cg, module, stmt.annotation)
            if ref is not None:
                info.attr_types[stmt.target.id] = ref
    init_key = info.methods.get("__init__")
    if init_key is None:
        return
    init_fn = cg.functions[init_key]
    init = init_fn.node
    assert isinstance(init, (ast.FunctionDef, ast.AsyncFunctionDef))
    params: Dict[str, Optional[TypeRef]] = {}
    for arg in list(init.args.args) + list(init.args.kwonlyargs):
        params[arg.arg] = _annotation_class(cg, module, arg.annotation)
    selfname = init.args.args[0].arg if init.args.args else "self"
    for node in init_fn.nodes:
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        annotation: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value, annotation = node.target, node.value, \
                node.annotation
        if not (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == selfname):
            continue
        attr = target.attr
        if attr in info.attr_types:
            continue
        ref = _annotation_class(cg, module, annotation)
        if ref is None and isinstance(value, ast.Name):
            ref = params.get(value.id)
        if ref is None and isinstance(value, ast.Call):
            resolved = _resolve_class_expr(cg, module, value.func)
            if resolved is not None:
                ref = TypeRef(cls=resolved)
        if ref is not None:
            info.attr_types[attr] = ref


# -- body scanning ----------------------------------------------------------

def _scan_bodies(cg: CallGraph, module: Module) -> None:
    for stmt in module.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _scan_function(cg, module, stmt, owner=None)
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    _scan_function(cg, module, sub, owner=stmt.name)


def _scan_function(cg: CallGraph, module: Module, node: ast.AST,
                   owner: Optional[str]) -> None:
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    qual = f"{owner}.{node.name}" if owner else node.name
    fn = cg.functions[f"{module.name}:{qual}"]
    self_cls = (module.name, owner) if owner else None
    selfname = None
    if owner and node.args.args:
        selfname = node.args.args[0].arg

    locals_: Dict[str, TypeRef] = {}
    for arg in list(node.args.args) + list(node.args.kwonlyargs):
        ref = _annotation_class(cg, module.name, arg.annotation)
        if ref is not None:
            locals_[arg.arg] = ref

    resolver = _Resolver(cg, module.name, self_cls, selfname, locals_)

    # pass 1: infer local variable types (flow-insensitive)
    for sub in fn.nodes:
        if isinstance(sub, ast.Assign) and len(sub.targets) == 1 and \
                isinstance(sub.targets[0], ast.Name):
            ref = resolver.infer_type(sub.value)
            if ref is not None:
                locals_[sub.targets[0].id] = ref
        elif isinstance(sub, ast.For) and isinstance(sub.target, ast.Name):
            ref = resolver.infer_type(sub.iter)
            if ref is not None and ref.container:
                locals_[sub.target.id] = TypeRef(cls=ref.cls)

    # pass 2: calls, callback references, forbidden uses
    seen_calls: Set[Tuple[str, int]] = set()

    def add_call(key: Optional[str], line: int) -> None:
        if key is not None and key in cg.functions and \
                (key, line) not in seen_calls:
            seen_calls.add((key, line))
            fn.calls.append(CallSite(callee=key, line=line))

    for sub in fn.nodes:
        if isinstance(sub, ast.Call):
            for key in resolver.resolve_call(sub):
                add_call(key, sub.lineno)
            dotted = resolver.external_dotted(sub.func)
            if dotted is not None:
                reason = _forbidden_reason(dotted)
                if reason is not None:
                    fn.forbidden.append(ForbiddenUse(
                        line=sub.lineno, dotted=dotted, reason=reason))
            for arg in list(sub.args) + [kw.value for kw in sub.keywords]:
                for key in resolver.resolve_reference(arg):
                    add_call(key, sub.lineno)
        elif isinstance(sub, ast.Attribute):
            dotted = resolver.external_dotted(sub)
            if dotted is not None and dotted in ("os.environ",):
                fn.forbidden.append(ForbiddenUse(
                    line=sub.lineno, dotted=dotted,
                    reason=_FORBIDDEN_EXACT["os.environ"]))
        elif isinstance(sub, ast.Assign):
            for key in resolver.resolve_reference(sub.value):
                add_call(key, sub.lineno)


def _forbidden_reason(dotted: str) -> Optional[str]:
    if dotted in _FORBIDDEN_EXEMPT:
        return None
    if dotted in _FORBIDDEN_EXACT:
        return _FORBIDDEN_EXACT[dotted]
    if dotted in _FORBIDDEN_BUILTINS:
        return _FORBIDDEN_BUILTINS[dotted]
    for prefix, reason in _FORBIDDEN_PREFIX.items():
        if dotted.startswith(prefix):
            return reason
    return None


class _Resolver:
    """Resolves expressions to types / callees inside one function body."""

    def __init__(self, cg: CallGraph, module: str,
                 self_cls: Optional[Tuple[str, str]],
                 selfname: Optional[str],
                 locals_: Dict[str, TypeRef]) -> None:
        self.cg = cg
        self.module = module
        self.self_cls = self_cls
        self.selfname = selfname
        self.locals = locals_

    # -- types -------------------------------------------------------------

    def infer_type(self, expr: ast.expr) -> Optional[TypeRef]:
        if isinstance(expr, ast.Name):
            if expr.id == self.selfname and self.self_cls:
                return TypeRef(cls=self.self_cls)
            return self.locals.get(expr.id)
        if isinstance(expr, ast.Attribute):
            if expr.attr == "values" or expr.attr == "items":
                return None
            base = self.infer_type(expr.value)
            if base is not None and not base.container:
                return self.cg.lookup_attr_type(base.cls, expr.attr)
            return None
        if isinstance(expr, ast.Subscript):
            base = self.infer_type(expr.value)
            if base is not None and base.container:
                return TypeRef(cls=base.cls)
            return None
        if isinstance(expr, ast.Call):
            func = expr.func
            # x.values() on a container attr yields elements when iterated
            if isinstance(func, ast.Attribute) and func.attr == "values":
                base = self.infer_type(func.value)
                if base is not None and base.container:
                    return base
                return None
            resolved = _resolve_class_expr(self.cg, self.module, func)
            if resolved is not None:
                return TypeRef(cls=resolved)
            return None
        return None

    # -- callees -----------------------------------------------------------

    def resolve_call(self, call: ast.Call) -> List[str]:
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name_call(func.id)
        if isinstance(func, ast.Attribute):
            return self._resolve_attr_call(func)
        return []

    def _resolve_name_call(self, name: str) -> List[str]:
        local = self.locals.get(name)
        if local is not None and not local.container:
            init = self.cg.lookup_method(local.cls, "__call__")
            return [init] if init else []
        sym = _resolve_symbol(self.cg, self.module, name)
        if sym is not None:
            if sym[0] == "func":
                return [sym[1]]  # type: ignore[list-item]
            if sym[0] == "cls":
                init = self.cg.lookup_method(
                    sym[1], "__init__")  # type: ignore[arg-type]
                return [init] if init else []
            return []
        fallback = self.cg.unique_module_function(name)
        return [fallback] if fallback else []

    def _resolve_attr_call(self, func: ast.Attribute) -> List[str]:
        # module-qualified call: m.f(...)
        if isinstance(func.value, ast.Name):
            sym = _resolve_symbol(self.cg, self.module, func.value.id)
            if sym is not None and sym[0] == "mod":
                key = f"{sym[1]}:{func.attr}"
                if key in self.cg.functions:
                    return [key]
                candidate = (sym[1], func.attr)
                if candidate in self.cg.classes:
                    init = self.cg.lookup_method(
                        candidate, "__init__")  # type: ignore[arg-type]
                    return [init] if init else []
                return []
            if sym is not None and sym[0] == "cls":
                hit = self.cg.lookup_method(
                    sym[1], func.attr)  # type: ignore[arg-type]
                return [hit] if hit else []
            if sym is not None and sym[0] in ("extmod", "ext"):
                return []
        receiver = self.infer_type(func.value)
        if receiver is not None and not receiver.container:
            hit = self.cg.lookup_method(receiver.cls, func.attr)
            if hit:
                return [hit]
            return []
        fallback = self.cg.unique_method(func.attr)
        return [fallback] if fallback else []

    def resolve_reference(self, expr: ast.expr) -> List[str]:
        """A bare function/method reference (callback) becomes an edge."""
        if isinstance(expr, ast.Name):
            sym = _resolve_symbol(self.cg, self.module, expr.id)
            if sym is not None and sym[0] == "func":
                return [sym[1]]  # type: ignore[list-item]
            return []
        if isinstance(expr, ast.Attribute) and not isinstance(
                expr.value, ast.Call):
            if isinstance(expr.value, ast.Name):
                sym = _resolve_symbol(self.cg, self.module, expr.value.id)
                if sym is not None:
                    if sym[0] == "mod":
                        key = f"{sym[1]}:{expr.attr}"
                        return [key] if key in self.cg.functions else []
                    if sym[0] in ("extmod", "ext", "cls"):
                        return []
            receiver = self.infer_type(expr.value)
            if receiver is not None and not receiver.container:
                hit = self.cg.lookup_method(receiver.cls, expr.attr)
                return [hit] if hit else []
        return []

    # -- external dotted names (forbidden-source detection) -----------------

    def external_dotted(self, expr: ast.expr) -> Optional[str]:
        """Dotted name of an expression rooted at an external module or an
        imported external name; None if it is not external."""
        if isinstance(expr, ast.Name):
            if expr.id in _FORBIDDEN_BUILTINS and \
                    _resolve_symbol(self.cg, self.module, expr.id) is None \
                    and expr.id not in self.locals:
                return expr.id
            sym = _resolve_symbol(self.cg, self.module, expr.id)
            if sym is not None and sym[0] in ("extmod", "ext"):
                return sym[1]  # type: ignore[return-value]
            return None
        if isinstance(expr, ast.Attribute):
            base = self.external_dotted(expr.value)
            if base is not None:
                return f"{base}.{expr.attr}"
        return None
