"""Model-checking scenarios: small, fully deterministic deployments.

A scenario is a :class:`~repro.harness.runner.Cluster` — three
datacenters on a chain serializer tree I — F — T (or on a stabilization
baseline of the protocol table), one group fully replicated and one
genuinely partial — plus the oracles that judge a run and, optionally, a
fault plan or a scripted reconfiguration.  Its clients play *scripts*
(:mod:`repro.datacenter.script`) that build real causal chains across
datacenters — the same chain the TCP smoke cluster runs
(:func:`repro.net.spec.chain_clients`):

* ``writer-I`` writes ``g0:a`` then ``g0:b`` (b depends on a) and the
  partial-group key ``g1:p`` (replicated at I and F only — the bait for
  the routing oracle);
* ``relay-F`` polls ``g0:b`` until it is visible, then writes ``g0:y``
  (y depends on b across datacenters);
* ``reader-T`` polls ``g0:y``, then re-reads ``g0:a`` (session checks).

Everything is deterministic given the schedule decisions, so a recorded
decision list replays bit-identically.  The reconfiguration scenarios
additionally swap the tree mid-run (fast path / failure path) while the
above labels are in flight.  The fault scenarios (``crash-chain3`` and
the five chaos entries: ``serializer-crash``, ``root-partition``,
``crash-during-epoch-change``, ``eunomia-seq-crash``,
``okapi-clock-skew``) run a :class:`~repro.faults.plan.FaultPlan` on
the deployment, most of them with the robustness machinery on
(:func:`build_hardened_chain3`), and check the whole degrade/recover arc.

``MUTATIONS`` are deliberate protocol bugs injected into one serializer —
the checker's self-test: a healthy checker must catch every one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, FrozenSet, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.analysis.mc.oracles import RoutingOracle
from repro.analysis.runtime import HazardMonitor
from repro.core.failover import AutoFailover
from repro.core.label import LabelType
from repro.core.reconfig import ReconfigurationManager
from repro.core.replication import ReplicationMap
from repro.core.service import SaturnService
from repro.core.tree import TreeTopology
from repro.datacenter.client import ClientProcess
from repro.datacenter.messages import LabelBatch
from repro.datacenter.script import ScriptedWorkload
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultAction, FaultPlan
from repro.harness.runner import Cluster, ClusterConfig
from repro.net.spec import chain_clients
from repro.protocols import protocol_named
from repro.sim.engine import Simulator
from repro.sim.network import LatencyModel, Network
from repro.verify.checker import ExecutionLog

__all__ = ["Scenario", "SCENARIOS", "MUTATIONS", "SITES", "build_scenario",
           "build_chain3", "build_hardened_chain3", "BEACON_PERIOD",
           "DETECTOR"]

SITES = ("I", "F", "T")

#: client i starts 0.013 * i ms into the run, so the attaches do not
#: produce meaningless 3-way ties at t=0
CLIENT_STAGGER = 0.013
#: sink cadence of the Saturn-family datacenters (a baseline takes none)
SINK_CADENCE = dict(sink_batch_period=2.0, sink_heartbeat_period=8.0,
                    bulk_heartbeat_period=5.0)
#: detector tuning shared by every fault scenario: beacons every 2 ms,
#: suspicion after 7 ms of silence, degradation 4 ms later
BEACON_PERIOD = 2.0
DETECTOR = dict(beacon_timeout=7.0, stabilization_wait=4.0)


@dataclass
class Scenario:
    """A built and started (not yet run) model-checking deployment: the
    cluster, with its parts also reachable by name, and the oracles."""

    name: str
    cluster: Cluster
    sim: Simulator
    network: Network
    replication: ReplicationMap
    #: None for baseline scenarios (no serializer tree to check)
    service: Optional[SaturnService]
    #: SaturnDatacenter, or a StabilizedDatacenter subclass for baselines
    datacenters: Dict[str, object]
    clients: List[ClientProcess]
    log: ExecutionLog
    monitor: HazardMonitor
    routing_oracle: RoutingOracle
    horizon: float
    #: directed process-name pairs eligible for delay perturbation
    delay_links: FrozenSet[Tuple[str, str]]
    #: liveness floor: fewer recorded updates means the schedule starved
    min_expected_updates: int = 4
    #: None for baseline scenarios
    manager: Optional[ReconfigurationManager] = None
    mutation: Optional[str] = None
    #: fault injection (repro.faults): the plan is applied at run start so
    #: a controller installed in between can own the timing choices
    injector: Optional[FaultInjector] = None
    fault_plan: Optional[FaultPlan] = None
    failover: Optional[AutoFailover] = None

    def run(self) -> None:
        """Run to the horizon (install any controller hooks first)."""
        if (self.injector is not None and self.fault_plan is not None
                and not self.injector.applied):
            self.injector.apply(self.fault_plan)
        self.sim.run(until=self.horizon)

    def digest(self) -> str:
        return self.monitor.trace_digest()

    def summary(self, violations: List[str]) -> dict:
        """The run's degrade/recover arc as JSON-ready data: the trace
        digest, the faults fired, each failure detector's transitions and
        degraded spans, the coordinator's recoveries, escalated
        transitions, sink replays and the recorded update count."""
        # a baseline runs StabilizedDatacenter subclasses, which have no
        # failover detector, remote proxy or label sink — guard every
        # Saturn-specific field so one summary shape serves both
        detectors = {}
        for name, dc in sorted(self.datacenters.items()):
            failover = getattr(dc, "failover", None)
            if failover is not None:
                detectors[name] = {
                    "state": failover.state,
                    "transitions": [[t, s] for t, s in failover.transitions],
                    "degraded_spans": [[a, b]
                                       for a, b in failover.degraded_spans],
                }
        return {
            "scenario": self.name,
            "violations": violations,
            "digest": self.digest(),
            "faults_fired": ([[t, kind, at]
                              for t, kind, at in self.injector.fired]
                             if self.injector is not None else []),
            "detectors": detectors,
            "recoveries": ([[t, e] for t, e in self.failover.recoveries]
                           if self.failover is not None else []),
            "transitions_escalated": {
                name: dc.proxy.transitions_escalated
                for name, dc in sorted(self.datacenters.items())
                if hasattr(dc, "proxy")},
            "sink_replays": {name: dc.sink.replays
                             for name, dc in sorted(self.datacenters.items())
                             if hasattr(dc, "sink")},
            "updates_recorded": len(self.log.updates),
        }


# ---------------------------------------------------------------------------
# the chain3 deployment
# ---------------------------------------------------------------------------

def _latency_model() -> LatencyModel:
    model = LatencyModel(local_latency=0.25)
    model.set("I", "F", 4.0)
    model.set("F", "T", 6.0)
    model.set("I", "T", 10.0)
    return model


def _pivoted_topology() -> TreeTopology:
    """The reconfiguration target C2: same leaves, I in the middle."""
    return TreeTopology(
        serializer_sites={"sI": "I", "sF": "F", "sT": "T"},
        edges=[("sF", "sI"), ("sI", "sT")],
        attachments={"I": "sI", "F": "sF", "T": "sT"},
    )


def _tree_links(topology: TreeTopology, epoch: int) -> List[Tuple[str, str]]:
    """Directed serializer process-name pairs for every tree edge."""
    links = []
    for a, b in topology.edges:
        name_a = SaturnService.serializer_process_name(epoch, a)
        name_b = SaturnService.serializer_process_name(epoch, b)
        links.append((name_a, name_b))
        links.append((name_b, name_a))
    return links


def build_chain3(name: str, horizon: float, system: str = "saturn",
                 clients: Optional[Sequence[Dict[str, Any]]] = None,
                 reconfigure_at: Optional[float] = None,
                 emergency: bool = False,
                 beacon_period: float = 0.0,
                 dc_params: Optional[Mapping[str, Any]] = None,
                 auto_failover: bool = False,
                 fault_plan: Optional[FaultPlan] = None,
                 min_expected_updates: int = 4) -> Scenario:
    """Build the chain3 deployment running *system*.

    Same sites, latencies, replication groups, seed and scripted causal
    workload for every system of the protocol table.  Without a
    serializer tree (``gentlerain``/``cure``/``eunomia``/``okapi``)
    ``service`` is ``None`` and the routing oracle checks destination
    sets only (:class:`~repro.analysis.mc.oracles.RoutingOracle`).  The
    knobs beyond the reconfiguration pair exist for the fault scenarios
    (``crash-chain3`` and the chaos entries below): custom client
    scripts, serializer beacons + per-datacenter detector parameters
    (``dc_params``, as in :class:`~repro.harness.runner.ClusterConfig`),
    the automatic-recovery coordinator, and a scheduled fault plan."""
    has_tree = protocol_named(system).has_tree
    replication = ReplicationMap(list(SITES))
    replication.set_group("g0", SITES)
    replication.set_group("g1", ("I", "F"))
    cluster = Cluster(
        ClusterConfig(
            system=system, sites=SITES, num_partitions=2, seed=11,
            latency_model=_latency_model(),
            saturn_topology=TreeTopology.chain(SITES),
            beacon_period=beacon_period,
            auto_failover=auto_failover,
            dc_params=dict(SINK_CADENCE if has_tree else {},
                           **(dc_params or {})),
            replication=replication),
        ScriptedWorkload(
            clients or chain_clients(SITES, relay_cap=40, reader_cap=60),
            stagger=CLIENT_STAGGER))
    log = ExecutionLog(replication)
    cluster.attach_execution_log(log)
    # the monitor and the routing oracle are the fabric's two observers
    monitor = HazardMonitor.install(cluster.network)
    routing_oracle = RoutingOracle(replication, cluster.service)
    cluster.network.observers += (routing_oracle,)
    # scheduled at build time: a schedule controller installed afterwards
    # sees exactly the events of the run, not the start-up ones
    cluster.start()

    delay_links = set()
    if has_tree:
        delay_links.update(_tree_links(cluster.service.topology(0), epoch=0))
    else:
        # every inter-datacenter pair, plus the hops through a datacenter's
        # own auxiliary processes (Eunomia: dc -> sequencer -> remote dcs)
        for a in cluster.datacenters.values():
            for b in cluster.datacenters.values():
                if a is not b:
                    delay_links.add((a.name, b.name))
                    for aux in cluster.protocol.aux_processes(a):
                        delay_links.add((a.name, aux.name))
                        delay_links.add((aux.name, b.name))
    if reconfigure_at is not None:
        # scripted epoch change: the harness (not protocol code) owns the
        # absolute-time schedule, so drive the manager from the kernel here
        c2 = _pivoted_topology()
        cluster.sim.schedule_at(
            reconfigure_at,
            lambda: cluster.manager.reconfigure(c2, emergency=emergency))
        delay_links.update(_tree_links(c2, epoch=1))
    injector: Optional[FaultInjector] = None
    if fault_plan is not None:
        injector = FaultInjector(
            cluster.sim, cluster.network, service=cluster.service,
            manager=cluster.manager,
            clocks={site: dc.clock
                    for site, dc in cluster.datacenters.items()})

    return Scenario(
        name=name, cluster=cluster, sim=cluster.sim, network=cluster.network,
        replication=replication, service=cluster.service,
        datacenters=cluster.datacenters, clients=cluster.clients, log=log,
        monitor=monitor, routing_oracle=routing_oracle,
        horizon=horizon, delay_links=frozenset(delay_links),
        min_expected_updates=min_expected_updates, manager=cluster.manager,
        injector=injector, fault_plan=fault_plan, failover=cluster.failover)


def build_hardened_chain3(name: str, horizon: float, fault_plan: FaultPlan,
                          auto_failover: bool = True,
                          reconfigure_at: Optional[float] = None,
                          dc_params: Optional[Mapping[str, Any]] = None,
                          min_expected_updates: int = 5) -> Scenario:
    """Saturn chain3 with the robustness machinery on: serializer
    beacons, the per-sink failure detector and (unless turned off) the
    :class:`~repro.core.failover.AutoFailover` coordinator.  The clients
    are hardened for fault runs: generous poll caps (visibility can lag
    by a whole detection + recovery cycle) and a fourth update ``g0:c``
    written by I only after it has seen ``g0:y`` — under the crash
    scenarios that write happens while I is degraded, so ``c`` exercises
    the park/replay path end to end."""
    return build_chain3(
        name, horizon,
        clients=chain_clients(SITES, relay_cap=200, reader_cap=200,
                              writer_cap=300),
        reconfigure_at=reconfigure_at, beacon_period=BEACON_PERIOD,
        dc_params=dict(DETECTOR, **(dc_params or {})),
        auto_failover=auto_failover, fault_plan=fault_plan,
        min_expected_updates=min_expected_updates)


def _chain3() -> Scenario:
    return build_chain3("chain3", horizon=150.0)


def _reconfig_chain3() -> Scenario:
    # t=12 ms: the g0 labels are mid-tree when the epoch flips (fast path)
    return build_chain3("reconfig-chain3", horizon=250.0, reconfigure_at=12.0)


def _reconfig_emergency() -> Scenario:
    scenario = build_chain3("reconfig-emergency", horizon=400.0,
                            reconfigure_at=12.0, emergency=True)
    # the failure path abandons C1: kill its serializers at the switch so
    # the only way labels arrive is the timestamp fallback + C2
    scenario.sim.schedule_at(
        12.0, lambda: scenario.service.fail_tree(epoch=0))
    return scenario


def _crash_chain3() -> Scenario:
    """Serializer sI crashes mid-stream — *when* is a schedulable FAULT
    decision (four candidate instants bracketing the label flow) — then
    restarts at t=45.  The beacon detector degrades I to the timestamp
    fallback, I keeps writing while degraded (``g0:c`` parks in the sink),
    and the restarted serializer's beacon triggers the coordinator's
    emergency epoch change, which replays the backlog through the new
    tree.  The oracles check the whole arc: nothing lost, nothing
    misordered, every client terminates."""
    plan = FaultPlan(name="crash-chain3", actions=(
        FaultAction(kind="crash-serializer",
                    at_choices=(6.0, 9.0, 12.0, 15.0),
                    args={"tree": "sI", "epoch": 0}),
        FaultAction(kind="restart-serializer", at=45.0,
                    args={"tree": "sI", "epoch": 0}),
    ))
    return build_hardened_chain3("crash-chain3", 260.0, plan)


def _baseline_chain3(system: str) -> Callable[[], Scenario]:
    """chain3 on a stabilization baseline, with poll caps sized for
    stabilization visibility (a 5 ms round cadence instead of Saturn's
    label trees)."""
    def build() -> Scenario:
        return build_chain3(
            f"{system}-chain3", horizon=300.0, system=system,
            clients=chain_clients(SITES, relay_cap=150, reader_cap=200))
    return build


# -- chaos scenarios: fixed fault times on the hardened deployment ---------
#
# All fault times are fixed (``at=...``), so these run bit-identically
# without a schedule controller; the variant with open fault timing is
# ``crash-chain3`` above.  Under a controller they explore the same tie
# and delay spaces as every other entry.

def _serializer_crash() -> Scenario:
    """Datacenter I's attachment serializer dies mid-stream and restarts
    later.  I degrades to the timestamp total order (parking its outgoing
    labels), keeps writing while degraded, and the restarted serializer's
    first beacon triggers the emergency epoch change that replays the
    backlog."""
    # t=6: after the first label batch cleared sI (~t=2.5) but before the
    # y label comes back through it (~t=12) — y's branch toward I is
    # swallowed, and everything I writes afterwards parks until recovery
    plan = FaultPlan(name="serializer-crash", actions=(
        FaultAction(kind="crash-serializer", at=6.0,
                    args={"tree": "sI", "epoch": 0}),
        FaultAction(kind="restart-serializer", at=40.0,
                    args={"tree": "sI", "epoch": 0}),
    ))
    return build_hardened_chain3("serializer-crash", 150.0, plan)


def _root_partition() -> Scenario:
    """The root serializer sF is isolated from the network before the
    first label batch crosses it, so the batch reaches neither F nor T by
    tree.  F degrades and recovers; T (whose own attachment stayed
    healthy) only sees the updates once the emergency transition's
    timestamp fallback drains its buffered payloads."""
    # t=3: the first batch is already in flight from sI (sent ~t=2.5, so
    # it still lands on sF), but every send to or *from* the isolated sF
    # is held by the reliable channels — F and T get payloads with no
    # labels until the outage ends and the emergency switch replays
    root = SaturnService.serializer_process_name(0, "sF")
    plan = FaultPlan(name="root-partition", actions=(
        FaultAction(kind="isolate", at=3.0, args={"process": root}),
        FaultAction(kind="rejoin", at=45.0, args={"process": root}),
    ))
    return build_hardened_chain3("root-partition", 200.0, plan)


def _crash_during_epoch_change() -> Scenario:
    """sI crashes just before a *planned* reconfiguration, swallowing
    epoch-change marks so the fast path can never complete.  The proxies'
    transition timeout escalates the stuck switch onto the failure path
    (§6.2) and the run converges anyway."""
    # sI dies at t=6; a *planned* reconfiguration fires at t=15.  The
    # epoch-change marks routed through the dead serializer never arrive,
    # so the fast path stalls at every proxy; the transition timeout
    # escalates the switch onto the failure path instead.  No automatic
    # recovery here — the planned switch itself replaces the dead tree.
    plan = FaultPlan(name="crash-during-epoch-change", actions=(
        FaultAction(kind="crash-serializer", at=6.0,
                    args={"tree": "sI", "epoch": 0}),
    ))
    return build_hardened_chain3(
        "crash-during-epoch-change", 200.0, plan, auto_failover=False,
        reconfigure_at=15.0, dc_params=dict(transition_timeout=30.0))


def _baseline_outage(name: str, system: str, plan: FaultPlan) -> Scenario:
    """chain3 on *system*, with poll caps sized for a stalled
    stabilization and ``g0:c`` written through the outage."""
    return build_chain3(
        name, horizon=300.0, system=system,
        clients=chain_clients(SITES, relay_cap=200, reader_cap=250,
                              writer_cap=300),
        fault_plan=plan, min_expected_updates=5)


def _eunomia_seq_crash() -> Scenario:
    """Datacenter I's site sequencer is cut off mid-stream.

    t=3: the first batch tick (t=2) already shipped ``g0:a``, but ``b``
    and ``p`` are still buffered (or in flight to) the sequencer when it
    is isolated — and so are I's subsequent clock-floor ticks, so I's
    stable floor freezes everywhere.  Remote visibility of I's updates
    stalls (deferred stabilization's liveness cost) while local writes
    keep completing (the "unobtrusive" claim: the client path never
    touches the sequencer).  After the rejoin at t=40 the held FIFO
    traffic replays in order; the oracles check the whole arc — nothing
    lost, nothing misordered, every client terminates."""
    seq_i = "seq:I"
    plan = FaultPlan(name="eunomia-seq-crash", actions=(
        FaultAction(kind="isolate", at=3.0, args={"process": seq_i}),
        FaultAction(kind="rejoin", at=40.0, args={"process": seq_i}),
    ))
    return _baseline_outage("eunomia-seq-crash", "eunomia", plan)


def _okapi_clock_skew() -> Scenario:
    """Datacenter I's physical clock jumps 8 ms ahead mid-run, then an
    NTP-style resync at t=60 yanks it back.

    The hybrid clock must absorb both edges: timestamps stay monotone
    through the backward step (logical bumps carry the HLC until
    physical time catches up), receivers merge the skewed values into
    their own clocks, and the global-cut stabilization keeps advancing
    because Okapi's GSV follows *received HLCs*, not local wall clocks.
    ``g0:c`` is written while the skew is active, so a future-stamped
    update flows through the whole pipeline."""
    plan = FaultPlan(name="okapi-clock-skew", actions=(
        FaultAction(kind="clock-skew", at=10.0,
                    args={"dc": "I", "skew": 8.0}),
        FaultAction(kind="clock-skew", at=60.0,
                    args={"dc": "I", "skew": 0.0}),
    ))
    return _baseline_outage("okapi-clock-skew", "okapi", plan)


SCENARIOS: Dict[str, Callable[[], Scenario]] = {
    "chain3": _chain3,
    "reconfig-chain3": _reconfig_chain3,
    "reconfig-emergency": _reconfig_emergency,
    "crash-chain3": _crash_chain3,
    **{f"{system}-chain3": _baseline_chain3(system)
       for system in ("gentlerain", "cure", "eunomia", "okapi")},
    "serializer-crash": _serializer_crash,
    "root-partition": _root_partition,
    "crash-during-epoch-change": _crash_during_epoch_change,
    "eunomia-seq-crash": _eunomia_seq_crash,
    "okapi-clock-skew": _okapi_clock_skew,
}


# ---------------------------------------------------------------------------
# mutations (checker self-test: each one must be caught)
# ---------------------------------------------------------------------------

def _mutate_drop_fifo(scenario: Scenario) -> None:
    """Serializer sI forwards every batch with labels reversed — it stops
    forwarding in arrival order, the §5.3 discipline the causal argument
    rests on.  Caught by the causal-visibility oracle (b visible before
    its dependency a)."""
    serializer = scenario.service.serializers(0)["sI"]
    original = serializer._route_batch

    def reversed_route(batch: LabelBatch, came_from, sender) -> None:
        mutated = LabelBatch(tuple(reversed(batch.labels)), epoch=batch.epoch)
        original(mutated, came_from, sender)

    serializer._route_batch = reversed_route


def _mutate_drop_label(scenario: Scenario) -> None:
    """Serializer sI silently drops the first update label it routes.
    Caught by the completeness oracle (the update never becomes visible at
    the interested remote datacenters) and by the causal oracle (its
    dependents become visible without it)."""
    serializer = scenario.service.serializers(0)["sI"]
    original = serializer._route_batch
    state = {"dropped": False}

    def dropping_route(batch: LabelBatch, came_from, sender) -> None:
        labels = batch.labels
        if not state["dropped"]:
            kept = []
            for label in labels:
                if not state["dropped"] and label.type is LabelType.UPDATE:
                    state["dropped"] = True
                    continue
                kept.append(label)
            if not kept:
                return
            batch = LabelBatch(tuple(kept), epoch=batch.epoch)
        original(batch, came_from, sender)

    serializer._route_batch = dropping_route


def _mutate_leak_routing(scenario: Scenario) -> None:
    """Serializer sF ignores interest sets and floods every direction —
    genuine partial replication is gone.  Caught by the routing oracle the
    moment a g1 label (replicated at I and F only) crosses the sF -> sT
    branch."""
    serializer = scenario.service.serializers(0)["sF"]

    def leaky_route(batch: LabelBatch, came_from, sender) -> None:
        total = len(batch.labels)
        for neighbor, peer, _reachable, delay in serializer._out_edges:
            if neighbor == came_from:
                continue
            serializer._forward(peer, batch, extra_delay=delay)
            serializer.labels_forwarded += total
        for dc, delivery in serializer._attached:
            if delivery == sender:
                continue
            serializer._forward(delivery, batch)
            serializer.labels_delivered += total

    serializer._route_batch = leaky_route


MUTATIONS: Dict[str, Callable[[Scenario], None]] = {
    "drop-fifo": _mutate_drop_fifo,
    "drop-label": _mutate_drop_label,
    "leak-routing": _mutate_leak_routing,
}


def build_scenario(name: str, mutation: Optional[str] = None) -> Scenario:
    """Build scenario *name*, optionally with a self-test mutation."""
    try:
        builder = SCENARIOS[name]
    except KeyError:
        raise ValueError(f"unknown scenario {name!r}; "
                         f"expected one of {sorted(SCENARIOS)}") from None
    scenario = builder()
    if mutation is not None:
        try:
            mutate = MUTATIONS[mutation]
        except KeyError:
            raise ValueError(f"unknown mutation {mutation!r}; "
                             f"expected one of {sorted(MUTATIONS)}") from None
        mutate(scenario)
        scenario.mutation = mutation
    return scenario
