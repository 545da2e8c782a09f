"""Cluster specification: the JSON contract between driver and nodes.

A :class:`ClusterSpec` is everything a node needs to build its actors —
the system under study (a name of the protocol table), sites,
replication groups, the serializer tree, datacenter parameters, and the
scripted client workloads — serialized to ``spec.json`` in the
cluster directory.  The driver additionally writes one config directory
per node (``<cluster>/<node>/node.json``) pointing at the spec and the
directory service, mirroring the per-node basedirs of tahoe-lafs.

:func:`chain_smoke_spec` builds the N-datacenter chain used by the
``net-smoke`` CI job.  For ``n == 3`` it is, deliberately, the same
scenario as the model checker's ``chain3`` (sites I/F/T, keys ``g0:a``
-> ``g0:b`` -> ``g0:y`` plus the partial-group bait ``g1:p``), so the
sim/TCP equivalence test can hold both transports' execution logs to
the same expectations.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.naming import dc_process_name
from repro.core.replication import ReplicationMap
from repro.core.service import SaturnService
from repro.core.tree import TreeTopology
from repro.protocols import protocol_named

__all__ = ["ClusterSpec", "POLL_CAP", "chain_clients", "chain_smoke_spec",
           "write_cluster"]

#: max re-reads per client poll step of the smoke chain: on real time it
#: must outlast the slowest system's stabilization round trip
POLL_CAP = 2000

#: first sites reuse the mc chain3 names so the scenarios line up
_SITE_NAMES = ("I", "F", "T")

KEY_A, KEY_B, KEY_P = "g0:a", "g0:b", "g1:p"
#: written while the writer's datacenter is degraded (fault scenarios)
KEY_C = "g0:c"


def _site_name(index: int) -> str:
    return _SITE_NAMES[index] if index < len(_SITE_NAMES) else f"D{index}"


def _chain_key(index: int) -> str:
    """Key written by relay *index* (1-based); ``g0:y`` matches chain3."""
    return "g0:y" if index == 1 else f"g0:y{index}"


@dataclass
class ClusterSpec:
    """A deployable cluster: topology, replication, workload scripts."""

    name: str
    sites: List[str]
    groups: Dict[str, List[str]]
    serializer_sites: Dict[str, str]
    edges: List[Tuple[str, str]]
    attachments: Dict[str, str]
    #: client scripts: {"id", "dc", "script": [step...]}, steps as in
    #: repro.datacenter.script
    clients: List[Dict[str, Any]]
    #: keyword overrides for the protocol's datacenter factory, as
    #: ``ClusterConfig.dc_params`` (periods are real milliseconds here)
    params: Dict[str, Any] = field(default_factory=dict)
    #: the system every datacenter runs (a name of the protocol table)
    system: str = "saturn"

    def __post_init__(self) -> None:
        protocol_named(self.system)

    # -- derived views -----------------------------------------------------

    def topology(self) -> TreeTopology:
        return TreeTopology(
            serializer_sites=dict(self.serializer_sites),
            edges=[tuple(edge) for edge in self.edges],
            attachments=dict(self.attachments))

    def replication(self) -> ReplicationMap:
        replication = ReplicationMap(list(self.sites))
        for group, replicas in sorted(self.groups.items()):
            replication.set_group(group, replicas)
        return replication

    def clients_of(self, dc: str) -> List[Dict[str, Any]]:
        return [client for client in self.clients if client["dc"] == dc]

    def nodes(self) -> Dict[str, Dict[str, Any]]:
        """node name -> {"role", "target", "processes"} for the roster."""
        roster: Dict[str, Dict[str, Any]] = {}
        for site in self.sites:
            processes = [dc_process_name(site)] + [
                f"client:{client['id']}" for client in self.clients_of(site)]
            roster[f"dc-{site}"] = {
                "role": "dc", "target": site, "processes": processes}
        if not protocol_named(self.system).has_tree:
            return roster
        for tree_name in sorted(self.serializer_sites):
            roster[f"ser-{tree_name}"] = {
                "role": "serializer", "target": tree_name,
                "processes": [
                    SaturnService.serializer_process_name(0, tree_name)]}
        return roster

    def scripted_updates(self) -> List[Tuple[str, str]]:
        """(origin dc, key) of every scripted update, in script order."""
        updates = []
        for client in self.clients:
            for op in client["script"]:
                if op["op"] == "update":
                    updates.append((client["dc"], op["key"]))
        return updates

    # -- JSON --------------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        return {**asdict(self), "edges": [list(edge) for edge in self.edges]}

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ClusterSpec":
        return cls(**dict(data, edges=[tuple(e) for e in data["edges"]]))

    @classmethod
    def load(cls, path: Path) -> "ClusterSpec":
        return cls.from_json(json.loads(path.read_text(encoding="utf-8")))

    def save(self, path: Path) -> None:
        path.write_text(json.dumps(self.to_json(), sort_keys=True, indent=2),
                        encoding="utf-8")


def chain_clients(sites: Sequence[str], relay_cap: int, reader_cap: int,
                  writer_cap: Optional[int] = None) -> List[Dict[str, Any]]:
    """Client scripts of the causal chain across *sites*.

    The writer (site 0) writes ``g0:a``, ``g0:b`` and the partial-group
    bait ``g1:p``; each relay (middle sites) waits for its predecessor's
    key and writes its own; the reader (last site) waits for the last
    relay's key and re-reads ``g0:a``.  With ``writer_cap`` the writer
    also waits for the last relay's key and then writes ``g0:c`` — the
    fault scenarios use it to write *through* an outage.
    """
    relays = []
    prev_key = KEY_B
    for index in range(1, len(sites) - 1):
        key = _chain_key(index)
        relays.append({
            "id": f"relay-{sites[index]}", "dc": sites[index],
            "script": [
                {"op": "poll", "key": prev_key, "cap": relay_cap},
                {"op": "update", "key": key, "size": 2},
            ],
        })
        prev_key = key
    writer = [
        {"op": "update", "key": KEY_A, "size": 2},
        {"op": "update", "key": KEY_B, "size": 2},
        {"op": "update", "key": KEY_P, "size": 2},
    ]
    if writer_cap is not None:
        writer += [{"op": "poll", "key": prev_key, "cap": writer_cap},
                   {"op": "update", "key": KEY_C, "size": 2}]
    return [
        {"id": f"writer-{sites[0]}", "dc": sites[0], "script": writer},
        *relays,
        {"id": f"reader-{sites[-1]}", "dc": sites[-1],
         "script": [
             {"op": "poll", "key": prev_key, "cap": reader_cap},
             {"op": "read", "key": KEY_A},
         ]},
    ]


def chain_smoke_spec(num_dcs: int = 3, system: str = "saturn") -> ClusterSpec:
    """The N-DC chain smoke cluster (>= 2 datacenters) running *system*.

    ``g0`` is fully replicated, ``g1`` lives on the first two sites only
    (the genuine-partial-replication bait); the :func:`chain_clients`
    causal chain of writes crosses every datacenter.  As in mc's
    ``chain3``, only a system with a tree is given a sink cadence.
    """
    if num_dcs < 2:
        raise ValueError("chain needs at least 2 datacenters")
    sites = [_site_name(i) for i in range(num_dcs)]
    serializers = {f"s{site}": site for site in sites}
    site_of = {site: f"s{site}" for site in sites}
    edges = [(site_of[a], site_of[b]) for a, b in zip(sites, sites[1:])]
    clients = chain_clients(sites, relay_cap=POLL_CAP, reader_cap=POLL_CAP)
    params: Dict[str, Any] = {"num_partitions": 2}
    if protocol_named(system).has_tree:
        params.update(sink_batch_period=5.0, sink_heartbeat_period=25.0,
                      bulk_heartbeat_period=20.0)

    return ClusterSpec(
        name=f"chain{num_dcs}",
        sites=sites,
        groups={"g0": list(sites), "g1": list(sites[:2])},
        serializer_sites=serializers,
        edges=edges,
        attachments=dict(site_of),
        clients=clients,
        params=params,
        system=system)


def write_cluster(spec: ClusterSpec, cluster_dir: Path,
                  directory_host: str, directory_port: int,
                  deadline_s: float = 120.0, sanitize: bool = False,
                  stall_ms: float = 250.0) -> Dict[str, Path]:
    """Write ``spec.json`` + per-node config dirs; returns node -> dir."""
    cluster_dir.mkdir(parents=True, exist_ok=True)
    spec.save(cluster_dir / "spec.json")
    node_dirs: Dict[str, Path] = {}
    for node, info in sorted(spec.nodes().items()):
        node_dir = cluster_dir / node
        node_dir.mkdir(exist_ok=True)
        config = {
            "node": node,
            "role": info["role"],
            "target": info["target"],
            "processes": info["processes"],
            "directory": [directory_host, directory_port],
            "spec": "../spec.json",
            "deadline_s": deadline_s,
            "sanitize": {"enabled": sanitize, "stall_ms": stall_ms},
        }
        (node_dir / "node.json").write_text(
            json.dumps(config, sort_keys=True, indent=2), encoding="utf-8")
        node_dirs[node] = node_dir
    return node_dirs
