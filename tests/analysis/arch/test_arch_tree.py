"""Pinned regressions for the findings the ARCH rules surfaced when first
run over the tree (upward imports, kernel-scheduler wrapping, and non-plain
wire payloads).  The tree-wide zero-findings gate is in test_analysis_engine.py."""

import ast
import dataclasses
import typing
from pathlib import Path

import pytest

from repro.analysis.imports import Module, build_graph, discover_modules

REPO_ROOT = Path(__file__).resolve().parents[3]
SRC_ROOT = REPO_ROOT / "src" / "repro"


def test_reconfig_does_not_import_datacenter_at_runtime():
    # ARCH001 fix: core.reconfig needed SaturnDatacenter only for type
    # hints; the import must stay behind TYPE_CHECKING
    modules = {}
    for name, path in discover_modules(SRC_ROOT, "repro").items():
        source = path.read_text(encoding="utf-8")
        modules[name] = Module(name, path, source, ast.parse(source))
    graph = build_graph(modules)
    upward = [edge for edge in graph.runtime_edges()
              if edge.importer == "repro.core.reconfig"
              and edge.target.startswith("repro.datacenter")]
    assert upward == [], upward


def test_manager_does_not_wrap_the_kernel_scheduler():
    # ARCH004 fix: schedule_reconfiguration bound protocol code to the
    # kernel's absolute clock; scripted epoch changes now schedule from
    # the harness layer
    from repro.core.reconfig import ReconfigurationManager
    assert not hasattr(ReconfigurationManager, "schedule_reconfiguration")


def test_dc_process_name_lives_in_core_naming():
    # ARCH001 fix: serializers address datacenters, so the naming scheme
    # must live at or below core; datacenter re-exports it for callers
    from repro.core.naming import dc_process_name
    from repro.datacenter.datacenter import dc_process_name as reexported
    assert reexported is dc_process_name
    assert dc_process_name("I") == "dc:I"


def test_wire_messages_are_frozen_and_slotted():
    # every wire message must reject both field mutation and ad-hoc
    # attribute growth (codec.register() refuses a class that does not)
    from repro.datacenter import messages

    credit = messages.LabelCredit(labels=1, tree_name="dc:I")
    with pytest.raises(dataclasses.FrozenInstanceError):
        credit.labels = 2
    with pytest.raises((AttributeError, TypeError)):
        object.__setattr__(credit, "extra", 1)  # no __dict__ to sneak into
    for name in messages.__all__:
        obj = getattr(messages, name)
        if dataclasses.is_dataclass(obj):
            assert hasattr(obj, "__slots__"), f"{name} lacks __slots__"
            assert obj.__dataclass_params__.frozen, f"{name} not frozen"


def test_stabilization_msg_carries_a_scalar():
    # ARCH203 fix: the stabilization value was annotated `object` (with a
    # docstring claiming Cure ships vectors); both baselines broadcast a
    # scalar clock floor and the vector is assembled receiver-side
    from repro.datacenter.messages import StabilizationMsg
    hints = typing.get_type_hints(StabilizationMsg)
    assert hints["value"] == typing.Optional[float]


def test_baseline_payload_stamp_is_a_plain_union():
    # ARCH203 fix: BaselinePayload.stamp was `object`
    from repro.baselines import base
    hints = typing.get_type_hints(base.BaselinePayload)
    assert hints["stamp"] == base.BaselineStamp
    assert type(None) not in typing.get_args(base.BaselineStamp)
    assert dict not in typing.get_args(base.BaselineStamp)
