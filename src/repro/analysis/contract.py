"""Load and validate ``arch_contract.toml``.

The contract is the checked-in, human-reviewed declaration of the
architecture: the layer order, which kernel seams protocol code may touch,
and which methods are purity entry points.  The auditor never invents
policy — it only checks the tree against this file, so a deliberate
architectural change is a one-line diff here rather than a lint
suppression.

Parsing uses :mod:`tomllib` (Python >= 3.11).  On older interpreters a
minimal line-oriented fallback handles the restricted TOML subset the
contract actually uses (tables, arrays of tables, string/array values).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["ArchContract", "Layer", "ContractError", "load_contract"]

DEFAULT_CONTRACT_NAME = "arch_contract.toml"


class ContractError(ValueError):
    """Raised when the contract file is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class Layer:
    """One layer: its name, rank (0 = bottom), and member packages/modules."""

    name: str
    rank: int
    packages: Tuple[str, ...]
    modules: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ArchContract:
    """Parsed, validated architecture contract."""

    path: Path
    root_package: str
    layers: Tuple[Layer, ...]
    # -- kernel seams ------------------------------------------------------
    kernel_layer: str
    seam_modules: Tuple[str, ...]
    seam_names: Tuple[str, ...]          # "module:Name" entries
    unrestricted_layers: Tuple[str, ...]
    scheduler_methods: Tuple[str, ...]
    # -- purity ------------------------------------------------------------
    purity_entry_points: Tuple[str, ...]  # "module:Class.method" fnmatch pats
    purity_boundary_modules: Tuple[str, ...]

    _layer_of_module: Dict[str, Layer] = field(
        default_factory=dict, compare=False, repr=False)
    _layer_of_package: Dict[str, Layer] = field(
        default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        for layer in self.layers:
            for mod in layer.modules:
                self._layer_of_module[mod] = layer
            for pkg in layer.packages:
                self._layer_of_package[pkg] = layer

    def layer_of(self, module: str) -> Optional[Layer]:
        """Layer owning *module*: exact module override wins, then the
        longest declared package prefix; ``None`` if unassigned."""
        hit = self._layer_of_module.get(module)
        if hit is not None:
            return hit
        best: Optional[Layer] = None
        best_len = -1
        for pkg, layer in self._layer_of_package.items():
            if module == pkg or module.startswith(pkg + "."):
                if len(pkg) > best_len:
                    best, best_len = layer, len(pkg)
        return best

    def is_restricted(self, layer: Layer) -> bool:
        """Restricted layers may only touch the kernel via sanctioned seams."""
        return layer.name not in self.unrestricted_layers

    def kernel_packages(self) -> Tuple[str, ...]:
        for layer in self.layers:
            if layer.name == self.kernel_layer:
                return layer.packages + layer.modules
        return ()


def _parse_toml(path: Path) -> Dict[str, Any]:
    try:
        import tomllib
    except ModuleNotFoundError:  # Python < 3.11
        return _parse_toml_minimal(path.read_text(encoding="utf-8"))
    with path.open("rb") as fh:
        return tomllib.load(fh)


def _parse_toml_minimal(text: str) -> Dict[str, Any]:
    """Tiny TOML-subset parser: [table], [[array-of-tables]], key = value
    with string / array-of-string values.  Enough for the contract file."""
    root: Dict[str, Any] = {}
    current: Dict[str, Any] = root
    pending = ""
    for raw in text.splitlines():
        line = raw.strip()
        if pending:
            line = pending + " " + line
            pending = ""
        if not line or line.startswith("#"):
            continue
        if line.startswith("[[") and line.endswith("]]"):
            name = line[2:-2].strip()
            current = {}
            root.setdefault(name, []).append(current)
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            current = root.setdefault(name, {})
            continue
        if "=" not in line:
            raise ContractError(f"unparseable contract line: {raw!r}")
        key, _, value = line.partition("=")
        value = value.strip()
        if value.startswith("[") and not value.endswith("]"):
            pending = line  # multi-line array: accumulate
            continue
        current[key.strip()] = _parse_value(value)
    if pending:
        raise ContractError(f"unterminated array in contract: {pending!r}")
    return root


def _parse_value(value: str) -> Any:
    value = value.strip()
    if value.startswith("[") and value.endswith("]"):
        inner = value[1:-1].strip()
        if not inner:
            return []
        items = []
        for part in _split_top_level(inner):
            items.append(_parse_value(part))
        return items
    if (value.startswith('"') and value.endswith('"')) or (
            value.startswith("'") and value.endswith("'")):
        return value[1:-1]
    if value in ("true", "false"):
        return value == "true"
    raise ContractError(f"unsupported contract value: {value!r}")


def _split_top_level(inner: str) -> List[str]:
    parts: List[str] = []
    depth = 0
    quote = ""
    buf = ""
    for ch in inner:
        if quote:
            buf += ch
            if ch == quote:
                quote = ""
            continue
        if ch in "\"'":
            quote = ch
            buf += ch
        elif ch == "[":
            depth += 1
            buf += ch
        elif ch == "]":
            depth -= 1
            buf += ch
        elif ch == "," and depth == 0:
            if buf.strip():
                parts.append(buf.strip())
            buf = ""
        else:
            buf += ch
    if buf.strip():
        parts.append(buf.strip())
    return parts


def _strings(table: Dict[str, Any], key: str,
             default: Sequence[str] = ()) -> Tuple[str, ...]:
    value = table.get(key)
    if value is None:
        return tuple(default)
    if not isinstance(value, list) or not all(
            isinstance(v, str) for v in value):
        raise ContractError(f"contract key {key!r} must be a list of strings")
    return tuple(value)


def load_contract(path: Path) -> ArchContract:
    """Parse and validate the contract at *path*."""
    if not path.is_file():
        raise ContractError(f"contract file not found: {path}")
    data = _parse_toml(path)

    meta = data.get("meta", {})
    root_package = meta.get("root_package")
    if not isinstance(root_package, str) or not root_package:
        raise ContractError("contract [meta] must set root_package")

    raw_layers = data.get("layers")
    if not isinstance(raw_layers, list) or not raw_layers:
        raise ContractError("contract must declare at least one [[layers]]")
    layers: List[Layer] = []
    seen_names = set()
    for rank, table in enumerate(raw_layers):
        name = table.get("name")
        if not isinstance(name, str) or not name:
            raise ContractError("every [[layers]] entry needs a name")
        if name in seen_names:
            raise ContractError(f"duplicate layer name: {name}")
        seen_names.add(name)
        layers.append(Layer(
            name=name, rank=rank,
            packages=_strings(table, "packages"),
            modules=_strings(table, "modules")))

    seams = data.get("kernel_seams", {})
    kernel_layer = seams.get("kernel_layer", layers[0].name)
    if kernel_layer not in seen_names:
        raise ContractError(f"kernel_layer {kernel_layer!r} is not a layer")
    unrestricted = _strings(seams, "unrestricted_layers")
    for name in unrestricted:
        if name not in seen_names:
            raise ContractError(
                f"unrestricted layer {name!r} is not a declared layer")

    purity = data.get("purity", {})

    return ArchContract(
        path=path,
        root_package=root_package,
        layers=tuple(layers),
        kernel_layer=kernel_layer,
        seam_modules=_strings(seams, "protocol_modules"),
        seam_names=_strings(seams, "protocol_names"),
        unrestricted_layers=unrestricted,
        scheduler_methods=_strings(
            seams, "scheduler_methods",
            ("schedule", "schedule_at", "call_at")),
        purity_entry_points=_strings(purity, "entry_points"),
        purity_boundary_modules=_strings(purity, "boundary_modules"),
    )
