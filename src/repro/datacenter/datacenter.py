"""Datacenter assembly: the abstract decomposition of §4 wired together.

One :class:`SaturnDatacenter` is a single simulated process containing the
paper's per-datacenter components — stateless frontend logic, one gear per
storage partition, the label sink, and the remote proxy.  Inter-datacenter
traffic (bulk payloads, heartbeats) and Saturn label batches are real
network messages.

``consistency`` selects the system variant:

* ``"saturn"``  — labels stream through the Saturn serializer tree; remote
  updates apply in Saturn order (the paper's full system);
* ``"timestamp"`` — the P-configuration: no tree, remote updates apply in
  conservative timestamp order using bulk-channel stability;
* ``"eventual"`` — the baseline: remote updates apply on payload arrival
  with no ordering (throughput upper-bound / latency lower-bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.core.label import Label, LabelType
from repro.core.naming import dc_process_name
from repro.core.replication import ReplicationMap
from repro.datacenter.frontend import Frontend
from repro.datacenter.gear import Gear
from repro.datacenter.failover import SinkFailoverDetector
from repro.datacenter.label_sink import LabelSink
from repro.datacenter.messages import (BulkHeartbeat, ClientAttach,
                                       ClientMigrate, ClientRead, ClientUpdate,
                                       LabelBatch, LabelCredit, Pong,
                                       RemotePayload, SerializerBeacon)
from repro.datacenter.overload import AdmissionController
from repro.datacenter.remote_proxy import RemoteProxy
from repro.datacenter.storage import PartitionedStore
from repro.sim.clock import PhysicalClock
from repro.sim.cpu import REMOTE_APPLY_FACTOR, CostModel
from repro.sim.engine import Simulator
from repro.sim.process import Process

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.service import SaturnService

# dc_process_name lives in repro.core.naming (core must not import upward);
# re-exported here: the package __init__ and test_arch_tree.py import it.
__all__ = ["DatacenterParams", "SaturnDatacenter", "dc_process_name"]


@dataclass
class DatacenterParams:
    """Static configuration of one datacenter."""

    name: str
    site: str
    num_partitions: int = 2
    consistency: str = "saturn"  # "saturn" | "timestamp" | "eventual"
    sink_batch_period: float = 1.0
    sink_heartbeat_period: float = 10.0
    bulk_heartbeat_period: float = 5.0
    parallel_concurrent_apply: bool = True
    #: Saturn outage detection: suspect the tree attachment after this
    #: long without a SerializerBeacon (0 disables the detector; pair with
    #: SaturnService(beacon_period=...) — see repro.datacenter.failover)
    beacon_timeout: float = 0.0
    #: suspicion -> degraded delay (a late beacon within it clears suspicion)
    stabilization_wait: float = 4.0
    #: probing of the dead attachment while degraded, with backoff
    probe_period: float = 4.0
    probe_backoff: float = 2.0
    probe_period_max: float = 30.0
    #: fast-path epoch changes stuck longer than this fall back to the
    #: failure path (0 disables; see RemoteProxy._escalate_transition)
    transition_timeout: float = 0.0
    #: opt-in overload machinery (repro.datacenter.overload): cap on
    #: admitted-but-unshipped update labels (0 disables admission control)
    sink_buffer_cap: int = 0
    #: flow-control credits towards the ingress serializer (0 disables)
    sink_credits: int = 0

    def __post_init__(self) -> None:
        if self.consistency not in ("saturn", "timestamp", "eventual"):
            raise ValueError(f"unknown consistency {self.consistency!r}")

    @property
    def label_replay_window(self) -> float:
        """How far back (ms) the sink re-sends labels on an emergency epoch
        change (0 = no replay, when the detector is off).  Must cover
        everything possibly swallowed by a dead tree: labels sent after the
        crash but before degradation (detection window) plus slack for
        propagation and probe/recovery delays."""
        if self.beacon_timeout <= 0:
            return 0.0
        return 2.0 * (self.beacon_timeout + self.stabilization_wait) + 20.0


class SaturnDatacenter(Process):
    """A geo-replicated datacenter with Saturn hooks."""

    def __init__(self, sim: Simulator, params: DatacenterParams,
                 replication: ReplicationMap, cost_model: CostModel,
                 clock: PhysicalClock, metrics=None, execution_log=None) -> None:
        super().__init__(sim, dc_process_name(params.name))
        self.params = params
        self.dc_name = params.name
        self.site = params.site
        self.consistency = params.consistency
        self.replication = replication
        self.cost_model = cost_model
        self.clock = clock
        self.metrics = metrics
        self.execution_log = execution_log

        self.store = PartitionedStore(sim, params.num_partitions)
        self.gears: List[Gear] = [Gear(self, p) for p in self.store.partitions]
        self.frontend = Frontend(self)
        self.proxy = RemoteProxy(
            self, mode=params.consistency,
            parallel_concurrent=params.parallel_concurrent_apply)
        self.proxy.transition_timeout = params.transition_timeout
        self.sink = LabelSink(self, batch_period=params.sink_batch_period,
                              heartbeat_period=params.sink_heartbeat_period,
                              replay_window=params.label_replay_window,
                              credits=(params.sink_credits
                                       if params.sink_credits > 0 else None))
        self.admission: Optional[AdmissionController] = None
        if params.sink_buffer_cap > 0 and self.consistency == "saturn":
            self.admission = AdmissionController(
                params.sink_buffer_cap, component=f"admission:{self.dc_name}")
            self.sink.admission = self.admission
        self.failover: Optional[SinkFailoverDetector] = None
        if params.beacon_timeout > 0 and self.consistency == "saturn":
            self.failover = SinkFailoverDetector(
                self, beacon_timeout=params.beacon_timeout,
                stabilization_wait=params.stabilization_wait,
                probe_period=params.probe_period,
                probe_backoff=params.probe_backoff,
                probe_period_max=params.probe_period_max)

        #: wired by the harness: the Saturn metadata service (tree mode only)
        self.saturn: Optional["SaturnService"] = None
        self.sink_epoch = 0
        #: set by the failover detector while the tree attachment is dead
        self.saturn_down = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start periodic machinery; call after network wiring."""
        if self.consistency == "saturn":
            self.sink.start()
        if self.params.bulk_heartbeat_period > 0 and self.consistency != "eventual":
            self.every(self.params.bulk_heartbeat_period, self._bulk_heartbeat)
        if self.failover is not None and self.saturn is not None:
            self.failover.start()

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------

    def _on_pong(self, sender: str, message: Pong) -> None:
        if self.failover is not None:
            self.failover.on_pong(message.seq)

    def _on_beacon(self, sender: str, message: SerializerBeacon) -> None:
        if self.failover is not None:
            self.failover.on_beacon(message)

    #: Process.receive's table; components are looked up at call time
    _HANDLERS = {
        ClientRead: lambda self, sender, m: self.frontend.read(sender, m.key),
        ClientUpdate: lambda self, sender, m: self.frontend.update(
            sender, m.key, m.value_size, m.label),
        ClientAttach: lambda self, sender, m: self.frontend.attach(
            sender, m.label),
        ClientMigrate: lambda self, sender, m: self.frontend.migrate(
            sender, m.target_dc, m.label),
        RemotePayload: lambda self, sender, m: self.proxy.on_payload(m),
        BulkHeartbeat: lambda self, sender, m: self.proxy.on_heartbeat(m),
        LabelBatch: lambda self, sender, m: self.proxy.on_labels(m),
        Pong: _on_pong,
        LabelCredit: lambda self, sender, m: self.sink.on_credit(m.labels),
        SerializerBeacon: _on_beacon,
    }

    def reply(self, client: str, message) -> None:
        self.send(client, message)

    # ------------------------------------------------------------------
    # cost helpers
    # ------------------------------------------------------------------

    def read_cost(self, value_size: int) -> float:
        if self.consistency == "eventual":
            return self.cost_model.read_base + self.cost_model.per_byte * value_size
        return self.cost_model.read_cost(value_size)

    def write_cost(self, value_size: int) -> float:
        if self.consistency == "eventual":
            return self.cost_model.write_base + self.cost_model.per_byte * value_size
        return self.cost_model.write_cost(value_size)

    def remote_apply_cost(self, value_size: int) -> float:
        return REMOTE_APPLY_FACTOR * self.write_cost(value_size)

    def cpu_for_sink(self, num_labels: int) -> None:
        """Label-sink batching consumes CPU on the first partition server."""
        self.store.partitions[0].cpu.consume(
            self.cost_model.label_sink_per_label * num_labels)

    # ------------------------------------------------------------------
    # outbound traffic
    # ------------------------------------------------------------------

    def send_bulk(self, dc_name: str, payload: RemotePayload,
                  size_bytes: int = 0) -> None:
        if self.network is None:
            return
        self.network.send(self.name, dc_process_name(dc_name), payload,
                          size_bytes=size_bytes)

    def _bulk_heartbeat(self) -> None:
        ts = self.clock.timestamp()
        heartbeat = BulkHeartbeat(origin_dc=self.dc_name, ts=ts)
        for dc in self.replication.datacenters:
            if dc != self.dc_name:
                self.send(dc_process_name(dc), heartbeat)

    def send_to_saturn(self, labels: Sequence[Label],
                       replayed: bool = False) -> None:
        if self.consistency != "saturn" or self.saturn is None:
            return
        ingress = self.saturn.ingress_process(self.dc_name, self.sink_epoch)
        if ingress is None:
            return
        self.send(ingress, LabelBatch(tuple(labels), epoch=self.sink_epoch,
                                      replayed=replayed))

    # ------------------------------------------------------------------
    # reconfiguration (§6.2)
    # ------------------------------------------------------------------

    def switch_tree(self, new_epoch: int, emergency: bool = False) -> None:
        """Move this datacenter's label stream from C1 to the C2 tree."""
        if not emergency:
            ts = self.clock.timestamp()
            label = Label(LabelType.EPOCH_CHANGE, src=f"{self.dc_name}/sink",
                          ts=ts, target=str(new_epoch), origin_dc=self.dc_name)
            self.sink.add(label)
            self.sink.flush()
        self.sink_epoch = new_epoch
        if self.failover is not None:
            self.failover.on_switch(new_epoch)
        if emergency:
            # re-propagate through C2 whatever the dead tree may have
            # swallowed: the parked backlog plus the recent-send window
            # (duplicates are discarded by the remote proxies' dedup)
            self.sink.replay_recent()
        self.proxy.begin_transition(new_epoch, emergency=emergency)

    # ------------------------------------------------------------------
    # observation hooks
    # ------------------------------------------------------------------

    def on_local_update(self, label: Label, created_at: float) -> None:
        if self.execution_log is not None:
            self.execution_log.record_update(label, self.dc_name, created_at)

    def on_remote_visible(self, payload: RemotePayload) -> None:
        if self.metrics is not None:
            self.metrics.record_visibility(
                payload.label.origin_dc, self.dc_name,
                self.sim.now - payload.created_at)
        if self.execution_log is not None:
            self.execution_log.record_visible(payload.label, self.dc_name,
                                              self.sim.now)
