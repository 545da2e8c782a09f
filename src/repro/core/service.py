"""Saturn metadata-service assembly.

A :class:`SaturnService` owns one or more serializer trees (one per epoch —
epochs exist so the tree can be swapped online, §6.2), instantiates the
serializer processes at their geographic sites, and tells each datacenter's
label sink which serializer to stream into.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, List, Optional, Tuple

from repro.core.naming import dc_process_name
from repro.core.replication import ReplicationMap
from repro.core.serializer import Serializer
from repro.core.tree import TreeTopology
from repro.sim.engine import Simulator
from repro.sim.network import Network

__all__ = ["SaturnService"]


class SaturnService:
    """The distributed metadata service: trees of serializers by epoch."""

    def __init__(self, sim: Simulator, network: Network,
                 replication: ReplicationMap, chain_length: int = 1,
                 local_hop_latency: float = 0.3,
                 beacon_period: float = 0.0,
                 serializer_service_rate: float = 0.0) -> None:
        self.sim = sim
        self.network = network
        self.replication = replication
        self.chain_length = chain_length
        self.local_hop_latency = local_hop_latency
        #: liveness-beacon period for every serializer (0 disables; see
        #: repro.datacenter.failover for the matching detector).
        self.beacon_period = beacon_period
        #: finite ingress service capacity in labels/ms for every
        #: serializer (0 = infinite; see repro.datacenter.overload)
        self.serializer_service_rate = serializer_service_rate
        self._trees: Dict[int, Tuple[TreeTopology, Dict[str, Serializer]]] = {}
        self.current_epoch = 0
        #: opt-in label-lifecycle tracer, inherited by every serializer
        #: installed after it is set (repro.obs)
        self.obs = None
        #: opt-in queue-metrics registry, inherited the same way
        self.queue_obs = None

    # ------------------------------------------------------------------

    @staticmethod
    def serializer_process_name(epoch: int, tree_name: str) -> str:
        return f"ser:e{epoch}:{tree_name}"

    def install_tree(self, topology: TreeTopology, epoch: int = 0,
                     hosted: Optional[AbstractSet[str]] = None) -> None:
        """Create the serializer processes of *topology* for *epoch*: all
        of them, or only those named in *hosted* (a socket node's roster)."""
        if epoch in self._trees:
            raise ValueError(f"epoch {epoch} already installed")
        # Epoch changes invalidate both memoizations that assume a static
        # tree: interest sets cached on the replication map (their universe
        # of datacenters may differ under the new attachment/replication
        # view) and the routing views cached on the topology (stale if the
        # caller repaired a topology by mutating its fields in place).
        self.replication.interest_cache.clear()
        topology.rebuild_routing()

        def peer_name(tree_name: str, _epoch: int = epoch) -> str:
            return self.serializer_process_name(_epoch, tree_name)

        processes: Dict[str, Serializer] = {}
        for tree_name, site in topology.serializer_sites.items():
            name = self.serializer_process_name(epoch, tree_name)
            if hosted is not None and name not in hosted:
                continue
            proc = Serializer(
                self.sim, name=name, tree_name=tree_name,
                topology=topology,
                replication=self.replication,
                delivery_name=dc_process_name,
                peer_process_name=peer_name,
                epoch=epoch,
                chain_length=self.chain_length,
                local_hop_latency=self.local_hop_latency,
                service_rate=self.serializer_service_rate,
            )
            proc.obs = self.obs
            proc.queue_obs = self.queue_obs
            proc.attach_network(self.network)
            self.network.place(proc.name, site)
            proc.start_beacons(self.beacon_period)
            processes[tree_name] = proc
        self._trees[epoch] = (topology, processes)

    def next_epoch(self) -> int:
        return max(self._trees) + 1 if self._trees else 0

    def epochs(self) -> List[int]:
        """Installed epochs, oldest first."""
        return sorted(self._trees)

    # ------------------------------------------------------------------

    def topology(self, epoch: Optional[int] = None) -> TreeTopology:
        epoch = self.current_epoch if epoch is None else epoch
        return self._trees[epoch][0]

    def serializers(self, epoch: Optional[int] = None) -> Dict[str, Serializer]:
        epoch = self.current_epoch if epoch is None else epoch
        return dict(self._trees[epoch][1])

    def ingress_process(self, dc_name: str, epoch: int) -> Optional[str]:
        """Process the datacenter's label sink should stream into."""
        entry = self._trees.get(epoch)
        if entry is None:
            return None
        topology, _ = entry
        serializer = topology.attachments.get(dc_name)
        if serializer is None:
            return None
        return self.serializer_process_name(epoch, serializer)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------

    def fail_serializer(self, tree_name: str, epoch: Optional[int] = None) -> None:
        epoch = self.current_epoch if epoch is None else epoch
        self._trees[epoch][1][tree_name].fail()

    def crash_replica(self, tree_name: str, epoch: Optional[int] = None) -> None:
        epoch = self.current_epoch if epoch is None else epoch
        self._trees[epoch][1][tree_name].crash_replica()

    def fail_tree(self, epoch: Optional[int] = None) -> None:
        """Total outage of one tree (all serializer groups down)."""
        epoch = self.current_epoch if epoch is None else epoch
        for serializer in self._trees[epoch][1].values():
            serializer.fail()

    def restart_serializer(self, tree_name: str,
                           epoch: Optional[int] = None) -> None:
        """Fail-recover one serializer group (no-op if it never crashed)."""
        epoch = self.current_epoch if epoch is None else epoch
        self._trees[epoch][1][tree_name].restart()

    def restart_tree(self, epoch: Optional[int] = None) -> None:
        epoch = self.current_epoch if epoch is None else epoch
        for tree_name in sorted(self._trees[epoch][1]):
            self._trees[epoch][1][tree_name].restart()
