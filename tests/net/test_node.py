"""Node runtime pieces that need no sockets: journal, scripts, view."""

import json

import pytest

from repro.core.label import Label, LabelType
from repro.datacenter.script import script_workload
from repro.net.codec import decode_value
from repro.net.node import HookJournal, NodeRuntime, StaticSaturnView
from repro.net.spec import chain_smoke_spec, write_cluster
from repro.workloads.ops import ReadOp, UpdateOp


def _label(key, ts=1.0, src="gear:I:0", origin="I"):
    return Label(type=LabelType.UPDATE, src=src, ts=ts, target=key,
                 origin_dc=origin)


class FakeClient:
    """Just enough of ClientProcess for the script interpreter."""

    def __init__(self):
        self.versions = {}

    def observed(self, key):
        return self.versions.get(key)


def _drain(generator, client, limit=50):
    ops = []
    for _ in range(limit):
        op = generator(client)
        if op is None:
            break
        ops.append(op)
    return ops


def test_static_view_answers_the_ingress_query():
    view = StaticSaturnView(chain_smoke_spec(3))
    assert view.ingress_process("I", 0) == "ser:e0:sI"
    assert view.ingress_process("T", 0) == "ser:e0:sT"
    assert view.ingress_process("nowhere", 0) is None


def test_script_workload_plays_updates_and_reads_once():
    generator = script_workload([
        {"op": "update", "key": "g0:a", "size": 3},
        {"op": "read", "key": "g0:a"},
    ])
    client = FakeClient()
    ops = _drain(generator, client)
    assert ops == [UpdateOp("g0:a", 3), ReadOp("g0:a")]
    assert generator(client) is None  # stays exhausted


def test_script_workload_polls_until_a_version_is_observed():
    generator = script_workload([
        {"op": "poll", "key": "g0:b", "cap": 10},
        {"op": "update", "key": "g0:y"},
    ])
    client = FakeClient()
    assert generator(client) == ReadOp("g0:b")
    assert generator(client) == ReadOp("g0:b")
    client.versions["g0:b"] = (1.0, "gear:I:0")
    assert generator(client) == UpdateOp("g0:y", 2)
    assert generator(client) is None


def test_script_workload_poll_cap_bounds_a_broken_cluster():
    generator = script_workload([{"op": "poll", "key": "g0:b", "cap": 4}])
    client = FakeClient()  # the version never arrives
    assert _drain(generator, client) == [ReadOp("g0:b")] * 4


def test_script_workload_rejects_unknown_ops():
    generator = script_workload([{"op": "frobnicate", "key": "k"}])
    with pytest.raises(ValueError):
        generator(FakeClient())


class FakeKernel:
    now = 12.5


def test_journal_round_trips_every_hook_call(tmp_path):
    """Six hooks, none known to the journal by name: each call is one
    ``{"at", "hook", "args"}`` line whose args decode to what was passed."""
    path = tmp_path / "visibility.jsonl"
    version, older = (2.0, "gear:I:0"), (1.0, "gear:I:0")
    calls = [
        ("record_update", (_label("g0:a"), "I", 1.0)),
        ("record_update_deps", (version, frozenset())),
        ("record_update_deps", (version, frozenset({older, (0.5, "x")}))),
        ("record_visible", (_label("g0:a"), "F", 2.0)),
        ("record_read", ("reader", "F", "g0:a", version, older)),
        ("record_read", ("reader", "F", "g0:b", None, None)),
        ("record_visibility", ("I", "F", 12.5)),
        ("record_op", ("read", 0.5, 9.0)),
    ]
    with open(path, "a", encoding="utf-8", buffering=1) as fh:
        journal = HookJournal(fh, FakeKernel())
        for hook, args in calls:
            getattr(journal, hook)(*args)
    lines = path.read_text(encoding="utf-8").splitlines()
    entries = [json.loads(line) for line in lines]
    assert all(set(entry) == {"at", "hook", "args"} and entry["at"] == 12.5
               for entry in entries)
    assert [(entry["hook"], decode_value(entry["args"]))
            for entry in entries] == calls
    # canonical: one sorted-key object per line, byte-stable
    assert lines == [json.dumps(entry, sort_keys=True) for entry in entries]


def test_journal_answers_only_recorder_hooks(tmp_path):
    with open(tmp_path / "v.jsonl", "a", encoding="utf-8") as fh:
        journal = HookJournal(fh, FakeKernel())
        with pytest.raises(AttributeError):
            journal.visible_pairs
        with pytest.raises(AttributeError):
            journal.on_issue


def test_node_runtime_loads_its_config_and_spec(tmp_path):
    spec = chain_smoke_spec(3)
    node_dirs = write_cluster(spec, tmp_path, "127.0.0.1", 4321,
                              deadline_s=17.0)
    runtime = NodeRuntime(node_dirs["dc-F"])
    assert runtime.node_name == "dc-F"
    assert runtime.role == "dc" and runtime.target == "F"
    assert runtime.processes == ["dc:F", "client:relay-F"]
    assert runtime.directory == ("127.0.0.1", 4321)
    assert runtime.deadline_s == 17.0
    assert runtime.spec == spec

    serializer = NodeRuntime(node_dirs["ser-sT"])
    assert serializer.role == "serializer"
    assert serializer.processes == ["ser:e0:sT"]
