"""Module discovery and runtime-import-graph extraction.

This is the shared substrate of the whole-program passes: it walks a source
tree, maps files to dotted module names, and — over the modules the engine
has already parsed — records every import edge with enough context (line,
TYPE_CHECKING-ness, function scope) for the layer pass to classify it.

Edge semantics:

* ``type_checking`` imports (inside ``if TYPE_CHECKING:``) are *not* runtime
  edges — they exist only for annotations and are excluded from both the
  layering and cycle checks.
* ``deferred`` imports (function/method scope) *are* runtime edges for
  layering (the dependency is real) but are excluded from cycle detection,
  because a lazy import is the sanctioned way to break a module cycle.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["ImportEdge", "Module", "ModuleGraph", "discover_modules",
           "build_graph", "resolve_relative"]


@dataclass(frozen=True)
class ImportEdge:
    """One import statement resolved against the module universe."""

    importer: str          # dotted module doing the import
    target: str            # dotted module being imported (inside universe)
    name: Optional[str]    # the specific name, for from-imports of names
    line: int
    type_checking: bool    # inside "if TYPE_CHECKING:"
    deferred: bool         # inside a function / method body

    @property
    def runtime(self) -> bool:
        return not self.type_checking


@dataclass
class Module:
    """A parsed source module plus its raw text (for noqa scanning)."""

    name: str
    path: Path
    source: str
    tree: ast.Module

    @cached_property
    def nodes(self) -> List[ast.AST]:
        """Every node in ``ast.walk`` order: walked once, shared by every
        rule that scans the whole module."""
        return list(ast.walk(self.tree))


class ModuleGraph:
    """The parsed universe plus all resolved in-universe import edges."""

    def __init__(self, modules: Dict[str, Module],
                 edges: List[ImportEdge]) -> None:
        self.modules = modules
        self.edges = edges

    def runtime_edges(self) -> List[ImportEdge]:
        return [e for e in self.edges if e.runtime]

    def cycle_edges(self) -> List[ImportEdge]:
        """Edges participating in import-time evaluation (cycle check)."""
        return [e for e in self.edges if e.runtime and not e.deferred]


def discover_modules(root: Path, package: str) -> Dict[str, Path]:
    """Map dotted module names to files for the package rooted at *root*.

    *root* is the directory of the package itself (e.g. ``src/repro`` for
    package ``repro``).  Non-package stray directories (no ``__init__.py``)
    are still walked — fixture trees rely on that — but ``__pycache__`` is
    skipped.
    """
    out: Dict[str, Path] = {}
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        rel = path.relative_to(root)
        parts = list(rel.parts)
        parts[-1] = parts[-1][:-3]  # strip .py
        if parts[-1] == "__init__":
            parts.pop()
        name = ".".join([package] + parts) if parts else package
        out[name] = path
    return out


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
        return True
    if isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING":
        return True
    return False


def _walk_imports(module: Module) -> Iterator[
        Tuple[ast.stmt, bool, bool]]:
    """Yield (import-node, type_checking, deferred) for the whole module."""

    def walk(node: ast.AST, type_checking: bool, deferred: bool) -> Iterator[
            Tuple[ast.stmt, bool, bool]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                yield child, type_checking, deferred
            elif isinstance(child, ast.If):
                guarded = type_checking or _is_type_checking_test(child.test)
                for stmt in child.body:
                    yield from walk_stmt(stmt, guarded, deferred)
                for stmt in child.orelse:
                    yield from walk_stmt(stmt, type_checking, deferred)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Lambda)):
                yield from walk(child, type_checking, True)
            else:
                yield from walk(child, type_checking, deferred)

    def walk_stmt(stmt: ast.stmt, type_checking: bool,
                  deferred: bool) -> Iterator[Tuple[ast.stmt, bool, bool]]:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield stmt, type_checking, deferred
        else:
            yield from walk(stmt, type_checking, deferred)

    yield from walk(module.tree, False, False)


def resolve_relative(importer: str, is_package: bool, level: int,
                      module: Optional[str]) -> Optional[str]:
    """Resolve a relative import to an absolute dotted name."""
    parts = importer.split(".")
    if not is_package:
        parts = parts[:-1]
    # level 1 = current package, each extra level pops one more
    drop = level - 1
    if drop > len(parts):
        return None
    base = parts[:len(parts) - drop] if drop else parts
    if module:
        base = base + module.split(".")
    return ".".join(base) if base else None


def build_graph(modules: Dict[str, Module]) -> ModuleGraph:
    """Extract the in-universe import edges of the parsed *modules*."""
    universe = set(modules)
    edges: List[ImportEdge] = []
    for name, module in sorted(modules.items()):
        is_package = module.path.name == "__init__.py"
        for node, type_checking, deferred in _walk_imports(module):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    target = _best_prefix(alias.name, universe)
                    if target:
                        edges.append(ImportEdge(
                            importer=name, target=target, name=None,
                            line=node.lineno, type_checking=type_checking,
                            deferred=deferred))
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = resolve_relative(
                        name, is_package, node.level, node.module)
                else:
                    base = node.module
                if base is None:
                    continue
                for alias in node.names:
                    # "from pkg import sub" may name a module or an object
                    as_module = f"{base}.{alias.name}"
                    if alias.name != "*" and as_module in universe:
                        edges.append(ImportEdge(
                            importer=name, target=as_module, name=None,
                            line=node.lineno, type_checking=type_checking,
                            deferred=deferred))
                        continue
                    target = _best_prefix(base, universe)
                    if target:
                        edges.append(ImportEdge(
                            importer=name, target=target,
                            name=None if alias.name == "*" else alias.name,
                            line=node.lineno, type_checking=type_checking,
                            deferred=deferred))
    return ModuleGraph(modules=modules, edges=edges)


def _best_prefix(dotted: str, universe: set) -> Optional[str]:
    """Longest prefix of *dotted* that names a module in the universe."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        candidate = ".".join(parts[:cut])
        if candidate in universe:
            return candidate
    return None


def strongly_connected_components(
        nodes: List[str],
        adjacency: Dict[str, List[str]]) -> List[List[str]]:
    """Tarjan SCC, iterative.  Returns components in discovery order."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Dict[str, bool] = {}
    stack: List[str] = []
    components: List[List[str]] = []
    counter = [0]

    for start in nodes:
        if start in index:
            continue
        work: List[Tuple[str, int]] = [(start, 0)]
        while work:
            node, child_idx = work.pop()
            if child_idx == 0:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack[node] = True
            children = adjacency.get(node, [])
            advanced = False
            for i in range(child_idx, len(children)):
                child = children[i]
                if child not in index:
                    work.append((node, i + 1))
                    work.append((child, 0))
                    advanced = True
                    break
                if on_stack.get(child):
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components
