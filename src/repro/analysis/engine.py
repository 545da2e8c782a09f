"""The analysis engine: parse once, run the selected rules, report once.

:func:`analyze` is the single programmatic entry point used by the CLI, CI
and the tests.  Every ``.py`` file under the given paths is read and
``ast.parse``d exactly once.  SAT rules are a per-file visitor over those
trees.  Each *directory* argument is additionally a package root: the
whole-program ARCH and CONC passes run over one module graph per root, and
one call graph built on first use — so a run that selects only per-file or
import-level rules never pays for it.  The package's dotted name is the
directory's name, or the ``root_package`` of the ``arch_contract.toml``
governing it (``--contract``, else the nearest one above the root); ARCH
rules check a root only against a contract that names it.

The audited code is never imported — everything is AST-level — so the
engine is safe to point at fixture trees containing deliberate violations.
"""

from __future__ import annotations

import ast
from functools import cached_property
from pathlib import Path
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from repro.analysis.blocking import check_blocking
from repro.analysis.callgraph import CallGraph, build_callgraph
from repro.analysis.contract import (
    DEFAULT_CONTRACT_NAME, ArchContract, load_contract)
from repro.analysis.imports import (
    Module, ModuleGraph, build_graph, discover_modules)
from repro.analysis.layers import check_layers
from repro.analysis.lifecycle import (
    check_cancellation, check_fire_and_forget, check_task_lifecycle)
from repro.analysis.lint import check_determinism
from repro.analysis.purity import check_purity
from repro.analysis.report import Finding, Report, finalize
from repro.analysis.rules import ALL_RULES, PARSE_ERROR_CODE
from repro.analysis.shared_state import (
    check_await_atomicity, check_lock_order)
from repro.analysis.wire import check_wire

__all__ = ["analyze", "lint_source", "find_contract"]


class Program:
    """One package root's parsed universe; the import graph and the call
    graph are each built at most once, on first use."""

    def __init__(self, modules: Dict[str, Module],
                 contract: Optional[ArchContract]) -> None:
        self.modules = modules
        self.contract = contract

    @cached_property
    def graph(self) -> ModuleGraph:
        return build_graph(self.modules)

    @cached_property
    def callgraph(self) -> CallGraph:
        return build_callgraph(self.graph)


#: whole-program passes: the codes each can report, and how to run it.
#: ARCH passes need the contract and are skipped for roots without one.
_PASSES: Tuple[Tuple[Tuple[str, ...],
                     Callable[[Program], List[Finding]]], ...] = (
    (("ARCH001", "ARCH002", "ARCH003", "ARCH004"),
     lambda p: check_layers(p.graph, p.contract)),
    (("ARCH101",),
     lambda p: check_purity(p.graph, p.callgraph, p.contract)),
    (("ARCH202", "ARCH204"), lambda p: check_wire(p.graph)),
    (("CONC001",), lambda p: check_blocking(p.graph, p.callgraph)),
    (("CONC002",), lambda p: check_fire_and_forget(p.graph, p.callgraph)),
    (("CONC003",), lambda p: check_await_atomicity(p.graph, p.callgraph)),
    (("CONC004",), lambda p: check_lock_order(p.graph, p.callgraph)),
    (("CONC005",), lambda p: check_cancellation(p.graph, p.callgraph)),
    (("CONC006",), lambda p: check_task_lifecycle(p.graph, p.callgraph)),
)


def find_contract(start: Path) -> Optional[Path]:
    """Walk up from *start* looking for ``arch_contract.toml``."""
    current = start if start.is_dir() else start.parent
    current = current.resolve()
    for candidate in [current, *current.parents]:
        path = candidate / DEFAULT_CONTRACT_NAME
        if path.is_file():
            return path
    return None


def _governing_contract(root: Path, explicit: Optional[ArchContract]
                        ) -> Optional[ArchContract]:
    """*explicit*, else the nearest contract above *root* — if it names
    *root* as its ``root_package``; a contract for another package (the
    repo's own, seen from ``benchmarks/`` or a fixture) does not apply."""
    contract = explicit
    if contract is None:
        found = find_contract(root)
        contract = load_contract(found) if found else None
    if contract is not None and \
            contract.root_package.rsplit(".", 1)[-1] == root.resolve().name:
        return contract
    return None


def _selected_codes(select: Optional[Iterable[str]],
                    ignore: Optional[Iterable[str]]) -> Set[str]:
    """Expand codes or prefixes (``SAT``, ``ARCH2``, ``CONC001``)."""
    catalogue = [rule.code for rule in ALL_RULES]

    def expand(tokens: Iterable[str]) -> Set[str]:
        out: Set[str] = set()
        for token in tokens:
            hits = [code for code in catalogue if code.startswith(token)]
            if not hits:
                raise ValueError(f"unknown rule code or prefix: {token!r}")
            out.update(hits)
        return out

    codes = set(catalogue) if select is None else expand(select)
    return codes - expand(ignore or ())


def _parse(source: str, path: Path, name: str
           ) -> Tuple[Optional[Module], Optional[Finding]]:
    """``(module, None)``, or ``(None, the SAT000 finding)``."""
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return None, Finding(
            file=str(path), line=exc.lineno or 1, col=(exc.offset or 1) - 1,
            code=PARSE_ERROR_CODE,
            message=f"file could not be parsed: {exc.msg}")
    return Module(name, path, source, tree), None


def lint_source(source: str, filename: str = "<string>") -> List[Finding]:
    """SAT findings for python *source* text, after ``# noqa`` filtering."""
    module, error = _parse(source, Path(filename), filename)
    if module is None:
        return [error]
    return finalize(check_determinism(module), {filename: source})


def analyze(paths: Sequence, select: Optional[Iterable[str]] = None,
            ignore: Optional[Iterable[str]] = None,
            contract: Optional[Path] = None) -> Report:
    """Run the selected rules over *paths* (``.py`` files or directories).

    *select* / *ignore* take rule codes or prefixes; *contract* overrides
    the upward search for ``arch_contract.toml``.  Raises ``ValueError``
    for an unknown code, a malformed contract, or an explicit contract
    that names none of the given directories.
    """
    codes = _selected_codes(select, ignore)
    explicit = load_contract(Path(contract)) if contract else None

    parsed: Dict[str, Optional[Module]] = {}
    findings: List[Finding] = []

    def load(path: Path, name: str) -> Optional[Module]:
        key = str(path)
        if key not in parsed:
            parsed[key], error = _parse(
                path.read_text(encoding="utf-8"), path, name)
            if error is not None:
                findings.append(error)
        module = parsed[key]
        if module is not None and module.name != name:
            # the same file under two overlapping roots: share the tree
            module = Module(name, path, module.source, module.tree)
        return module

    programs: List[Program] = []
    for path in map(Path, paths):
        if path.is_dir():
            governing = _governing_contract(path, explicit)
            package = governing.root_package if governing else path.name
            modules = {
                name: module
                for name, file in discover_modules(path, package).items()
                if (module := load(file, name)) is not None}
            programs.append(Program(modules, governing))
        elif path.suffix == ".py":
            load(path, path.stem)
    if explicit is not None and not any(p.contract for p in programs):
        raise ValueError(
            f"contract {contract} (root_package "
            f"{explicit.root_package!r}) names none of the given directories")

    ran: Set[str] = {code for code in codes if code.startswith("SAT")}
    if ran:
        for module in parsed.values():
            if module is not None:
                findings.extend(check_determinism(module))
    for program in programs:
        for pass_codes, check in _PASSES:
            wanted = codes.intersection(pass_codes)
            needs_contract = pass_codes[0].startswith("ARCH")
            if wanted and (program.contract or not needs_contract):
                ran |= wanted
                findings.extend(check(program))

    # an unparseable file has no noqa table, so SAT000 cannot be suppressed
    sources = {key: module.source for key, module in parsed.items()
               if module is not None}
    return Report(
        findings=finalize(
            (f for f in findings
             if f.code in codes or f.code == PARSE_ERROR_CODE), sources),
        files_checked=len(parsed),
        rules_run=tuple(r.code for r in ALL_RULES if r.code in ran))
