"""Per-file visitor enforcing the simulator's determinism contract
(SAT001–SAT007, SAT009).

The checks are deliberately repository-specific: they know that simulation
code must read time from the simulated clock, draw randomness from
:class:`repro.sim.rng.RngRegistry` streams, and never let hash-ordered
iteration decide the order in which events are scheduled or labels are
emitted.  See :mod:`repro.analysis.rules` for the catalogue; the engine
(:mod:`repro.analysis.engine`) feeds :func:`check_determinism` the trees
it has already parsed.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.helpers import terminal_name
from repro.analysis.imports import Module
from repro.analysis.report import Finding

__all__ = ["check_determinism"]


# -- what the rules pattern-match on ---------------------------------------

#: wall-clock functions of the ``time`` module (SAT001)
_WALL_CLOCK_TIME_FUNCS = {
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "clock",
}

#: wall-clock constructors of ``datetime`` / ``date`` (SAT001)
_WALL_CLOCK_DATETIME_FUNCS = {"now", "utcnow", "today"}

#: ``random`` module attributes that are *not* global-state draws (SAT002)
_RANDOM_SAFE_ATTRS = {"Random", "SystemRandom"}

#: repo functions/methods known to return sets (SAT003); iterating their
#: result without sorted(...) is hash-order dependent
_SET_RETURNING_NAMES = {
    "interest_of",          # core.serializer
    "replicas",             # core.replication.ReplicationMap
    "replicas_of_group",    # core.replication.ReplicationMap
    "reachable_dcs",        # core.tree.TreeTopology
    "sites",                # sim.network.LatencyModel
}

#: consumers for which iteration order cannot affect the result (SAT003)
_ORDER_INSENSITIVE_CONSUMERS = {
    "sorted", "min", "max", "sum", "any", "all", "len", "set", "frozenset",
}

#: order-preserving materializers: list(a_set) bakes hash order in (SAT003)
_ORDER_PRESERVING_MATERIALIZERS = {"list", "tuple"}

#: identifiers that smell like float timestamps (SAT004)
_TIMESTAMP_NAME_RE = re.compile(
    r"(?:^|_)(?:ts|time|timestamp|now|deadline|arrival|at|watermark|"
    r"visible|created|expiry)(?:_|$)"
)

#: constructors whose call as a default argument is still mutable (SAT005)
_MUTABLE_FACTORIES = {
    "list", "dict", "set", "defaultdict", "deque", "Counter",
    "OrderedDict", "bytearray",
}

#: base classes that make a class an actor for SAT006
_PROCESS_BASE_NAMES = {"Process"}

#: heapq functions that insert an entry (SAT007)
_HEAP_PUSH_FUNCS = {"heappush", "heappushpop"}

#: identifiers accepted as a deterministic tie-breaker in a heap entry's
#: second slot (SAT007): monotonic counters and total, hash-free keys
_TIEBREAK_NAME_RE = re.compile(
    r"(?:^|_)(?:seq|seqno|src|key|keys|id|idx|index|count|counter|tie|"
    r"order|pos|position|name|uid)(?:_|$)"
)

#: asyncio functions banned outside the kernel seam (SAT009):
#: get_event_loop silently binds an ambient loop, ensure_future drops the
#: strong task reference
_LOOP_MISUSE_FUNCS = {"get_event_loop", "ensure_future"}


def _is_set_producing(node: ast.expr) -> bool:
    """Conservatively: does this expression evaluate to a set?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = terminal_name(func)
        if isinstance(func, ast.Name) and name in {"set", "frozenset"}:
            return True
        if isinstance(func, ast.Attribute) and func.attr == "keys":
            return True
        if name in _SET_RETURNING_NAMES:
            return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
        return _is_set_producing(node.left) or _is_set_producing(node.right)
    return False


def _is_timestampish(node: ast.expr) -> bool:
    name = terminal_name(node)
    return name is not None and bool(_TIMESTAMP_NAME_RE.search(name))


def _is_float_constant(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


class _Visitor(ast.NodeVisitor):
    """Single-pass collector for all the rules."""

    def __init__(self, filename: str) -> None:
        self.filename = filename
        self.findings: List[Finding] = []
        #: classes considered actors (SAT006), grown to an in-file fixpoint
        self.process_classes: Set[str] = set()
        #: stack of (class-or-None) so methods know their owner
        self._class_stack: List[Optional[str]] = []
        #: stack of parameter-name sets for enclosing *actor methods*
        self._actor_params: List[Tuple[str, Set[str]]] = []
        #: GeneratorExp nodes already blessed by an order-insensitive consumer
        self._safe_generators: Set[int] = set()

    # -- reporting ---------------------------------------------------------

    def _report(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(Finding(
            file=self.filename,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            code=code,
            message=message,
        ))

    # -- SAT001 / SAT002: calls and imports --------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        self._check_wall_clock(node)
        self._check_global_random(node)
        self._check_call_materializes_set(node)
        self._check_heap_push(node)
        self._check_event_loop_misuse(node)
        self._bless_safe_generators(node)
        self.generic_visit(node)

    def _check_event_loop_misuse(self, node: ast.Call) -> None:
        func = node.func
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "asyncio"
                and func.attr in _LOOP_MISUSE_FUNCS):
            self._report(node, "SAT009",
                         f"asyncio.{func.attr}() outside the kernel seam; "
                         "take the loop from RealtimeKernel "
                         "(kernel.loop / kernel.create_task) or use "
                         "asyncio.get_running_loop() in a coroutine")

    def _check_wall_clock(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        owner = terminal_name(func.value)
        if owner == "time" and func.attr in _WALL_CLOCK_TIME_FUNCS:
            self._report(node, "SAT001",
                         f"wall-clock call time.{func.attr}(); use the "
                         "simulated clock (Simulator.now / LogicalClock)")
        elif (owner in {"datetime", "date"}
              and func.attr in _WALL_CLOCK_DATETIME_FUNCS):
            if func.attr == "today" and node.args:
                return  # today(tz) on some other object; not the classmethod
            self._report(node, "SAT001",
                         f"wall-clock call {owner}.{func.attr}(); simulation "
                         "code must not read the host clock")

    def _check_global_random(self, node: ast.Call) -> None:
        func = node.func
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "random"
                and func.attr not in _RANDOM_SAFE_ATTRS):
            self._report(node, "SAT002",
                         f"random.{func.attr}() uses the global RNG; draw "
                         "from a named RngRegistry stream instead")

    def visit_Import(self, node: ast.Import) -> None:
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            bad = [a.name for a in node.names
                   if a.name in _WALL_CLOCK_TIME_FUNCS]
            if bad:
                self._report(node, "SAT001",
                             f"importing wall-clock function(s) "
                             f"{', '.join(bad)} from time")
        elif node.module == "random":
            bad = [a.name for a in node.names
                   if a.name not in _RANDOM_SAFE_ATTRS]
            if bad:
                self._report(node, "SAT002",
                             f"importing {', '.join(bad)} from random binds "
                             "the global RNG; use RngRegistry streams")
        elif node.module == "asyncio":
            bad = [a.name for a in node.names
                   if a.name in _LOOP_MISUSE_FUNCS]
            if bad:
                self._report(node, "SAT009",
                             f"importing {', '.join(bad)} from asyncio; "
                             "loop acquisition belongs to the kernel seam "
                             "(RealtimeKernel)")
        self.generic_visit(node)

    # -- SAT007: heap entries need a deterministic tie-breaker --------------

    @staticmethod
    def _is_deterministic_tiebreak(node: ast.expr) -> bool:
        """Does this expression look like a total, deterministic key?

        Accepted: integer constants, and names / attributes / subscripts
        whose terminal identifier smells like a counter or a label key
        (``seq``, ``src``, ``key[1]``, ...).  Everything else — payload
        objects in particular — falls through to object comparison when
        priorities collide."""
        if isinstance(node, ast.Constant):
            return isinstance(node.value, (int, str)) and not isinstance(
                node.value, bool)
        if isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Call):
            node = node.func
        name = terminal_name(node)
        return name is not None and bool(_TIEBREAK_NAME_RE.search(name))

    def _check_heap_push(self, node: ast.Call) -> None:
        name = terminal_name(node.func)
        if name not in _HEAP_PUSH_FUNCS or len(node.args) < 2:
            return
        entry = node.args[1]
        if not isinstance(entry, ast.Tuple):
            self._report(entry, "SAT007",
                         f"{name}() entry is not a tuple literal, so a "
                         "deterministic tie-breaker cannot be verified; "
                         "push (priority, seq, payload)")
            return
        if len(entry.elts) < 2:
            self._report(entry, "SAT007",
                         f"{name}() entry has no tie-breaker: a lone "
                         "priority ties on equal values; push "
                         "(priority, seq, payload)")
            return
        if not self._is_deterministic_tiebreak(entry.elts[1]):
            self._report(entry, "SAT007",
                         f"{name}() entry's second element does not look "
                         "like a deterministic tie-breaker (counter / "
                         "label key); equal priorities will compare the "
                         "payload objects")

    # -- SAT003: hash-ordered iteration ------------------------------------

    def _bless_safe_generators(self, node: ast.Call) -> None:
        """Mark genexp arguments of order-insensitive consumers as safe."""
        name = terminal_name(node.func)
        if name in _ORDER_INSENSITIVE_CONSUMERS:
            for arg in node.args:
                if isinstance(arg, ast.GeneratorExp):
                    self._safe_generators.add(id(arg))

    def _check_call_materializes_set(self, node: ast.Call) -> None:
        name = terminal_name(node.func)
        if (isinstance(node.func, ast.Name)
                and name in _ORDER_PRESERVING_MATERIALIZERS
                and node.args and _is_set_producing(node.args[0])):
            self._report(node, "SAT003",
                         f"{name}(...) over a set bakes hash order into a "
                         "sequence; use sorted(...)")

    def visit_For(self, node: ast.For) -> None:
        if _is_set_producing(node.iter):
            self._report(node.iter, "SAT003",
                         "iterating a set in a for-loop is hash-order "
                         "dependent; wrap the iterable in sorted(...)")
        self.generic_visit(node)

    def _check_comprehension(self, node: ast.AST,
                             generators: Sequence[ast.comprehension],
                             ordered_result: bool) -> None:
        for gen in generators:
            if not _is_set_producing(gen.iter):
                continue
            if not ordered_result:
                continue  # building a set/bool: order cannot leak out
            self._report(gen.iter, "SAT003",
                         "comprehension over a set produces a hash-ordered "
                         "sequence; wrap the iterable in sorted(...)")

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._check_comprehension(node, node.generators, ordered_result=True)
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._check_comprehension(node, node.generators, ordered_result=False)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        # dicts remember insertion order, so a dict built from a set leaks
        # hash order to every later iteration of it
        self._check_comprehension(node, node.generators, ordered_result=True)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        ordered = id(node) not in self._safe_generators
        self._check_comprehension(node, node.generators, ordered_result=ordered)
        self.generic_visit(node)

    # -- SAT004: float-timestamp equality ----------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            lts, rts = _is_timestampish(left), _is_timestampish(right)
            lfc, rfc = _is_float_constant(left), _is_float_constant(right)
            if (lts and rts) or (lts and rfc) or (rts and lfc):
                self._report(node, "SAT004",
                             "== / != between float timestamps is brittle; "
                             "compare (ts, src) keys or use <= / >= cuts")
        self.generic_visit(node)

    # -- SAT005: mutable defaults ------------------------------------------

    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set,
                                           ast.ListComp, ast.DictComp,
                                           ast.SetComp))
            if (isinstance(default, ast.Call)
                    and terminal_name(default.func) in _MUTABLE_FACTORIES):
                mutable = True
            if mutable:
                self._report(default, "SAT005",
                             "mutable default argument is shared across "
                             "calls; default to None and construct inside")

    # -- SAT006: cross-process mutation ------------------------------------

    def _collect_process_classes(self, nodes: List[ast.AST]) -> None:
        """In-file fixpoint of 'inherits (transitively) from Process'."""
        class_bases: Dict[str, List[str]] = {}
        for stmt in nodes:
            if isinstance(stmt, ast.ClassDef):
                class_bases[stmt.name] = [
                    base for base in
                    (terminal_name(b) for b in stmt.bases)
                    if base is not None
                ]
        known = set(_PROCESS_BASE_NAMES)
        changed = True
        while changed:
            changed = False
            for name, bases in class_bases.items():
                if name not in known and any(b in known for b in bases):
                    known.add(name)
                    changed = True
        self.process_classes = known - _PROCESS_BASE_NAMES | (
            known & set(class_bases))

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _enter_function(self, node) -> bool:
        """Returns True if this function is an actor method to track."""
        self._check_defaults(node)
        owner = self._class_stack[-1] if self._class_stack else None
        if owner in self.process_classes and node.args.args:
            params = {a.arg for a in node.args.args[1:]}
            params.update(a.arg for a in node.args.kwonlyargs)
            if node.args.vararg:
                params.add(node.args.vararg.arg)
            self._actor_params.append((node.args.args[0].arg, params))
            return True
        return False

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        tracked = self._enter_function(node)
        self.generic_visit(node)
        if tracked:
            self._actor_params.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        tracked = self._enter_function(node)
        self.generic_visit(node)
        if tracked:
            self._actor_params.pop()

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def _check_foreign_write(self, target: ast.expr) -> None:
        if not self._actor_params:
            return
        if not isinstance(target, ast.Attribute):
            return
        root = target.value
        while isinstance(root, ast.Attribute):
            root = root.value
        if not isinstance(root, ast.Name):
            return
        selfname, params = self._actor_params[-1]
        if root.id != selfname and root.id in params:
            self._report(target, "SAT006",
                         f"writing {ast.unparse(target) if hasattr(ast, 'unparse') else root.id!r} "
                         "mutates state received from another process; "
                         "communicate via Network.send instead")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_foreign_write(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_foreign_write(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_foreign_write(node.target)
        self.generic_visit(node)


def check_determinism(module: Module) -> List[Finding]:
    """Every SAT finding in one parsed file (before ``# noqa`` filtering)."""
    visitor = _Visitor(str(module.path))
    visitor._collect_process_classes(module.nodes)
    visitor.visit(module.tree)
    return visitor.findings
