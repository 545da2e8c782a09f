"""Pass 1 — layer contract: ARCH001 upward imports, ARCH002 cycles,
ARCH003 unsanctioned kernel seams, ARCH004 kernel-scheduler bypass.

Inputs are the parsed :class:`~repro.analysis.imports.ModuleGraph` and
the :class:`~repro.analysis.contract.ArchContract`.  The pass is pure
graph/AST inspection — no imports of the audited code are executed.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set

from repro.analysis.contract import ArchContract
from repro.analysis.helpers import terminal_name
from repro.analysis.imports import (
    ImportEdge, Module, ModuleGraph, strongly_connected_components)
from repro.analysis.report import Finding

__all__ = ["check_layers"]


def check_layers(graph: ModuleGraph,
                 contract: ArchContract) -> List[Finding]:
    findings: List[Finding] = []
    findings.extend(_check_upward_imports(graph, contract))
    findings.extend(_check_cycles(graph))
    findings.extend(_check_kernel_seams(graph, contract))
    findings.extend(_check_scheduler_bypass(graph, contract))
    return findings


# -- ARCH001: upward imports ------------------------------------------------

def _check_upward_imports(graph: ModuleGraph,
                          contract: ArchContract) -> List[Finding]:
    findings = []
    for edge in graph.runtime_edges():
        src_layer = contract.layer_of(edge.importer)
        dst_layer = contract.layer_of(edge.target)
        if src_layer is None or dst_layer is None:
            continue  # modules outside the declared layering are exempt
        if dst_layer.rank > src_layer.rank:
            module = graph.modules[edge.importer]
            findings.append(Finding(
                file=str(module.path), line=edge.line, col=0, code="ARCH001",
                message=(
                    f"{edge.importer} (layer '{src_layer.name}') imports "
                    f"{edge.target} (layer '{dst_layer.name}'): upward "
                    "dependency violates the layer contract"),
            ))
    return findings


# -- ARCH002: import cycles -------------------------------------------------

def _check_cycles(graph: ModuleGraph) -> List[Finding]:
    adjacency: Dict[str, List[str]] = {}
    first_line: Dict[tuple, int] = {}
    self_loops: Set[str] = set()
    for edge in graph.cycle_edges():
        if edge.importer == edge.target:
            self_loops.add(edge.importer)
            continue
        adjacency.setdefault(edge.importer, [])
        if edge.target not in adjacency[edge.importer]:
            adjacency[edge.importer].append(edge.target)
        first_line.setdefault((edge.importer, edge.target), edge.line)
    nodes = sorted(graph.modules)
    findings = []
    for component in strongly_connected_components(nodes, adjacency):
        if len(component) < 2:
            continue
        members = sorted(component)
        anchor = members[0]
        line = min((first_line.get((a, b), 1)
                    for a in members for b in members if a != b
                    and (a, b) in first_line), default=1)
        module = graph.modules[anchor]
        findings.append(Finding(
            file=str(module.path), line=line, col=0, code="ARCH002",
            message=("import cycle between modules: "
                     + " <-> ".join(members)),
        ))
    for name in sorted(self_loops):
        module = graph.modules[name]
        findings.append(Finding(
            file=str(module.path), line=1, col=0, code="ARCH002",
            message=f"module {name} imports itself",
        ))
    return findings


# -- ARCH003: kernel seams --------------------------------------------------

def _kernel_module(target: str, contract: ArchContract) -> bool:
    layer = contract.layer_of(target)
    return layer is not None and layer.name == contract.kernel_layer


def _edge_sanctioned(edge: ImportEdge, contract: ArchContract) -> bool:
    if edge.target in contract.seam_modules:
        return True
    if edge.name is not None and f"{edge.target}:{edge.name}" in \
            contract.seam_names:
        return True
    return False


def _check_kernel_seams(graph: ModuleGraph,
                        contract: ArchContract) -> List[Finding]:
    findings = []
    for edge in graph.runtime_edges():
        src_layer = contract.layer_of(edge.importer)
        if src_layer is None or not contract.is_restricted(src_layer):
            continue
        if src_layer.name == contract.kernel_layer:
            continue  # the kernel may use itself freely
        if not _kernel_module(edge.target, contract):
            continue
        if _edge_sanctioned(edge, contract):
            continue
        module = graph.modules[edge.importer]
        what = (f"{edge.target}:{edge.name}" if edge.name else edge.target)
        findings.append(Finding(
            file=str(module.path), line=edge.line, col=0, code="ARCH003",
            message=(
                f"{edge.importer} (restricted layer '{src_layer.name}') "
                f"imports kernel internal {what}; only the sanctioned "
                "seams in arch_contract.toml are allowed"),
        ))
    return findings


# -- ARCH004: kernel-scheduler bypass --------------------------------------

#: receiver names treated as the simulator handle in protocol code
_SIM_HANDLE_NAMES = {"sim", "simulator"}


def _check_scheduler_bypass(graph: ModuleGraph,
                            contract: ArchContract) -> List[Finding]:
    findings = []
    methods = set(contract.scheduler_methods)
    for name in sorted(graph.modules):
        layer = contract.layer_of(name)
        if layer is None or not contract.is_restricted(layer):
            continue
        if layer.name == contract.kernel_layer:
            continue
        module = graph.modules[name]
        findings.extend(_scan_scheduler_calls(module, methods))
    return findings


def _scan_scheduler_calls(module: Module,
                          methods: Set[str]) -> List[Finding]:
    findings = []
    for node in module.nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in methods:
            continue
        owner_name = terminal_name(func.value)
        if owner_name not in _SIM_HANDLE_NAMES:
            continue
        findings.append(Finding(
            file=str(module.path), line=node.lineno, col=0, code="ARCH004",
            message=(
                f"protocol code calls {owner_name}.{func.attr}(...) on the "
                "kernel scheduler directly; use Process.set_timer / "
                "Process.every (relative delays a Transport can honor)"),
        ))
    return findings
