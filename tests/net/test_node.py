"""Node runtime pieces that need no sockets: recorder, scripts, view."""

import asyncio
import json

import pytest

from repro.core.label import Label, LabelType
from repro.net.kernel import RealtimeKernel
from repro.datacenter.script import script_workload
from repro.net.node import NetRecorder, NodeRuntime, StaticSaturnView
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


def test_recorder_writes_canonical_jsonl_and_tracks_first_visibility(
        tmp_path):
    path = tmp_path / "visibility.jsonl"

    async def main():
        kernel = RealtimeKernel(asyncio.get_running_loop())
        recorder = NetRecorder(
            open(path, "a", encoding="utf-8", buffering=1), kernel)
        recorder.record_update(_label("g0:a"), "I", created_at=1.0)
        recorder.record_visible(_label("g0:a"), "F", at=2.0)
        recorder.record_visible(_label("g0:a"), "F", at=3.0)  # duplicate
        recorder.record_read("reader", "F", "g0:a",
                             returned=(1.0, "gear:I:0"),
                             observed_max=None)
        recorder.record_read("reader", "F", "g0:b", returned=None,
                             observed_max=None)
        recorder.record_update_deps((2.0, "g"), {(1.0, "g")})
        recorder.record_visibility("I", "F", 12.5)
        recorder.record_op("read", 0.5, at=9.0)
        recorder.close()

    asyncio.run(main())
    events = [json.loads(line)
              for line in path.read_text(encoding="utf-8").splitlines()]
    kinds = [event["event"] for event in events]
    assert kinds == ["update", "visible", "visible", "read", "read",
                     "deps", "latency", "op"]
    assert events[0]["origin"] == "I" and events[0]["key"] == "g0:a"
    assert events[1]["dc"] == "F"
    assert events[3]["version"] == [1.0, "gear:I:0"]
    assert events[4]["version"] is None
    assert all("at" in event for event in events)


def test_recorder_visible_pairs_are_first_occurrence_order(tmp_path):
    async def main():
        kernel = RealtimeKernel(asyncio.get_running_loop())
        recorder = NetRecorder(
            open(tmp_path / "v.jsonl", "a", encoding="utf-8", buffering=1),
            kernel)
        recorder.record_update(_label("g0:a"), "I", created_at=1.0)
        recorder.record_visible(_label("g0:b", ts=2.0), "I", at=2.0)
        recorder.record_visible(_label("g0:a", ts=3.0), "I", at=3.0)
        assert recorder.visible_pairs == [("I", "g0:a"), ("I", "g0:b")]
        recorder.close()

    asyncio.run(main())


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
