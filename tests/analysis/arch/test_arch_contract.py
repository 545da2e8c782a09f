"""Contract loading and the layer-assignment rules it feeds the passes."""

from pathlib import Path

import pytest

from repro.analysis.contract import ContractError, load_contract

REPO_ROOT = Path(__file__).resolve().parents[3]


def repo_contract():
    return load_contract(REPO_ROOT / "arch_contract.toml")


def test_repo_contract_loads_and_layers_are_ordered():
    contract = repo_contract()
    assert contract.root_package == "repro"
    names = [layer.name for layer in contract.layers]
    assert names.index("kernel") < names.index("core") < \
        names.index("datacenter") < names.index("baselines")


def test_module_override_beats_package_prefix():
    contract = repo_contract()
    # messages.py lives in the datacenter package but belongs to core
    assert contract.layer_of("repro.datacenter.messages").name == "core"
    assert contract.layer_of("repro.datacenter.gear").name == "datacenter"
    # the op vocabulary lives in workloads but is datacenter-level
    assert contract.layer_of("repro.workloads.ops").name == "datacenter"
    assert contract.layer_of("repro.workloads.generators").name == "services"


def test_unassigned_module_maps_to_none():
    contract = repo_contract()
    assert contract.layer_of("somewhere.else") is None


def test_restricted_vs_unrestricted_layers():
    contract = repo_contract()
    by_name = {layer.name: layer for layer in contract.layers}
    assert contract.is_restricted(by_name["core"])
    assert contract.is_restricted(by_name["baselines"])
    assert not contract.is_restricted(by_name["tools"])


def test_missing_contract_file_raises():
    with pytest.raises(ContractError):
        load_contract(REPO_ROOT / "no_such_contract.toml")


def test_malformed_contract_raises(tmp_path):
    bad = tmp_path / "arch_contract.toml"
    bad.write_text("[meta]\n# no root_package\n", encoding="utf-8")
    with pytest.raises(ContractError):
        load_contract(bad)
    bad.write_text('[meta]\nroot_package = "x"\n', encoding="utf-8")
    with pytest.raises(ContractError):
        load_contract(bad)  # no layers


def test_duplicate_layer_name_raises(tmp_path):
    bad = tmp_path / "arch_contract.toml"
    bad.write_text(
        '[meta]\nroot_package = "x"\n'
        '[[layers]]\nname = "a"\npackages = ["x.a"]\n'
        '[[layers]]\nname = "a"\npackages = ["x.b"]\n',
        encoding="utf-8")
    with pytest.raises(ContractError):
        load_contract(bad)


def test_unknown_unrestricted_layer_raises(tmp_path):
    bad = tmp_path / "arch_contract.toml"
    bad.write_text(
        '[meta]\nroot_package = "x"\n'
        '[[layers]]\nname = "a"\npackages = ["x.a"]\n'
        '[kernel_seams]\nunrestricted_layers = ["ghost"]\n',
        encoding="utf-8")
    with pytest.raises(ContractError):
        load_contract(bad)


def test_components_are_parsed():
    contract = repo_contract()
    assert "repro.baselines.explicit:DepContext" in contract.components
    assert "repro.baselines.explicit:DepContext" not in contract.extra_messages
