"""Node runtime pieces that need no sockets: journal, scripts, assembly."""

import json
import re

import pytest

from repro.core.label import Label, LabelType
from repro.core.replication import ReplicationMap
from repro.datacenter.script import ScriptedWorkload, script_workload
from repro.harness.runner import Cluster, ClusterConfig
from repro.net.codec import decode_value
from repro.net.node import HookJournal, NodeRuntime
from repro.net.spec import chain_smoke_spec, write_cluster
from repro.protocols import SYSTEMS
from repro.sim.engine import Simulator
from repro.sim.network import Network
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


def _built(node_dir):
    """A node's actors assembled and started on the sim kernel, in the
    node's two phases: build (the roster it would register is then
    ``runtime.processes``), and, once the routes would be in, attach and
    start."""
    runtime = NodeRuntime(node_dir)
    runtime.kernel = Simulator()
    runtime.transport = Network(runtime.kernel)
    runtime._build_actors()
    runtime._start_actors()
    if runtime._visibility_fh is not None:
        runtime._visibility_fh.close()
    return runtime


def test_dc_node_saturn_answers_the_ingress_query(tmp_path):
    """A datacenter node's ``dc.saturn`` is the real service: it knows
    the whole tree but hosts none of its serializers."""
    node_dirs = write_cluster(chain_smoke_spec(3), tmp_path, "127.0.0.1", 1)
    saturn = _built(node_dirs["dc-F"]).datacenter.saturn
    assert saturn.ingress_process("I", 0) == "ser:e0:sI"
    assert saturn.ingress_process("T", 0) == "ser:e0:sT"
    assert saturn.ingress_process("nowhere", 0) is None
    assert saturn.serializers(0) == {}


def test_nodes_host_exactly_their_roster(tmp_path):
    """A serializer node builds its one serializer; a datacenter node
    registers its datacenter's auxiliary processes too."""
    node_dirs = write_cluster(chain_smoke_spec(3), tmp_path, "127.0.0.1", 1)
    serializer = _built(node_dirs["ser-sT"])
    assert [s.name for s in serializer.serializers] == ["ser:e0:sT"]
    assert serializer.processes == ["ser:e0:sT"]
    eunomia = write_cluster(chain_smoke_spec(3, "eunomia"), tmp_path / "eu",
                            "127.0.0.1", 1)
    assert sorted(eunomia) == ["dc-F", "dc-I", "dc-T"]
    node = _built(eunomia["dc-I"])
    assert node.processes == ["dc:I", "client:writer-I", "seq:I"]
    assert node.transport.process("seq:I") is node.datacenter.sequencer
    assert node.serializers == [] and not hasattr(node.datacenter, "saturn")


def _placed(network):
    """site -> names of the processes placed there."""
    by_site = {}
    for name, site in network._sites.items():
        by_site.setdefault(site, set()).add(name)
    return by_site


@pytest.mark.parametrize("system", SYSTEMS)
def test_the_nodes_build_what_one_cluster_builds(tmp_path, system):
    """Node by node or as one ``Cluster`` over the same spec, every site
    gets the same datacenter class and the same placed processes, and
    the serializer nodes together host the cluster's tree."""
    spec = chain_smoke_spec(3, system)
    nodes = [_built(node_dir) for node_dir in
             write_cluster(spec, tmp_path, "127.0.0.1", 1).values()]
    params = dict(spec.params)
    cluster = Cluster(
        ClusterConfig(system=system, sites=spec.sites,
                      num_partitions=params.pop("num_partitions"),
                      saturn_topology=spec.topology(),
                      replication=spec.replication(), dc_params=params),
        ScriptedWorkload(spec.clients, stagger=0.0))
    assert {node.target: type(node.datacenter) for node in nodes
            if node.datacenter is not None} == {
        site: type(dc) for site, dc in cluster.datacenters.items()}
    placed = {}
    for node in nodes:
        for site, names in _placed(node.transport).items():
            placed.setdefault(site, set()).update(names)
    assert placed == _placed(cluster.network)
    serializers = (cluster.service.serializers().values()
                   if cluster.service is not None else ())
    assert {s.name for node in nodes for s in node.serializers} == {
        s.name for s in serializers}


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
        ("record_update_deps", ("writer", older)),
        ("record_update_deps", ("writer", version)),
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


def test_a_session_journal_line_does_not_grow_with_its_history(tmp_path):
    """A client's ``record_update_deps`` line names the client and the
    version, never the history before it: the session's 200th is no longer
    than its first, apart from the digits of the version."""
    script = [{"op": op, "key": "g0:a"}
              for _ in range(200) for op in ("update", "read")]
    cluster = Cluster(
        ClusterConfig(system="saturn", sites=("I", "F"),
                      replication=ReplicationMap(["I", "F"])),
        ScriptedWorkload([{"id": "w", "dc": "I", "script": script}],
                         stagger=0.0))
    path = tmp_path / "visibility.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        cluster.attach_execution_log(HookJournal(fh, cluster.sim))
        cluster.start()
        cluster.sim.run(until=10_000.0)
    issued = [line for line in path.read_text(encoding="utf-8").splitlines()
              if json.loads(line)["hook"] == "record_update_deps"]
    assert len(issued) == 200
    first, last = (re.sub(r"[0-9]", "", issued[i]) for i in (0, 199))
    assert len(last) <= len(first)


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
