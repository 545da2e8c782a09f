"""The protocol table: every system under study, one entry each.

A :class:`Protocol` is what a builder needs to put a system under an
unchanged client library and workload (the §4 decomposition, and how §7.3
swaps GentleRain and Cure in): a datacenter factory, the client's stamp
merge function, how to count its dependency-metadata bytes, whether a
Saturn serializer tree carries its labels, and any processes a datacenter
runs besides itself.  :func:`check_params` and :class:`Deployment`, the
site builder of ``Cluster`` and the socket nodes, the bytes column of the
``five-way`` entry of :data:`~repro.harness.experiments.EXPERIMENTS`, the
mc/chaos scenarios and ``saturn-repro list`` all read :data:`PROTOCOLS`;
adding a system is one entry here plus its datacenter module.

Factories share one call shape::

    factory(sim, site, replication, cost_model, clock,
            num_partitions=..., metrics=..., **overrides) -> datacenter

where ``overrides`` is ``ClusterConfig.dc_params``: the remaining
:class:`~repro.datacenter.datacenter.DatacenterParams` fields for the
Saturn family, constructor keywords (Eunomia's ``batch_period``) for a
baseline.  Each entry declares them (``Protocol.params``), and
:func:`check_params` rejects any other key.  Every factory returns a
:class:`~repro.datacenter.base.Datacenter`: the skeleton owns the store,
the read path, the attach/migrate defaults, the replica fan-out and the
recorder calls, and a family overrides only its update path, its
attach/migrate waits and its read cost/stamp.

Metadata bytes are nominal wire sizes, so the cross-system *ratios* are
the result.  Baselines count sent-side (update stamps + stabilization /
sequencer traffic); Saturn counts received-side labels (each label is
processed once per interested datacenter, which is the genuine-partial-
replication win being measured).  The asymmetry is documented in
EXPERIMENTS.md; within a family the numbers compose.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import AbstractSet, Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.baselines.cure import CureDatacenter, cure_merge
from repro.baselines.eunomia import EunomiaDatacenter, eunomia_merge
from repro.baselines.explicit import ExplicitDatacenter, explicit_merge
from repro.baselines.gentlerain import GentleRainDatacenter, gentlerain_merge
from repro.baselines.okapi import OkapiDatacenter
from repro.core.failover import AutoFailover
from repro.core.label import label_max
from repro.core.reconfig import ReconfigurationManager
from repro.core.service import SaturnService
from repro.core.tree import TreeTopology
from repro.datacenter.datacenter import DatacenterParams, SaturnDatacenter
from repro.sim.cpu import CostModel

__all__ = ["Protocol", "PROTOCOLS", "SYSTEMS", "protocol_named",
           "check_params", "Deployment", "SATURN_LABEL_BYTES"]

#: nominal wire size of one Saturn label (type + src + ts + target +
#: origin); same convention as the baselines' stamp_wire_bytes
SATURN_LABEL_BYTES = 32
#: nominal wire size of one explicit (key, version) dependency
EXPLICIT_DEP_BYTES = 16


@dataclass(frozen=True)
class Protocol:
    """One system under study (see the module docstring)."""

    name: str
    #: one line for ``saturn-repro list``
    description: str
    datacenter: Callable[..., Any]
    #: client stamp merge, ``merge(stamp, stamp) -> stamp``
    merge: Callable[[Any, Any], Any]
    #: dependency-metadata bytes one datacenter moved during a run
    metadata_bytes: Callable[[Any], int]
    #: labels travel a Saturn serializer tree (there is a SaturnService
    #: to build, reconfigure and fail over)
    has_tree: bool = False
    #: processes a datacenter runs besides itself (Eunomia's sequencer);
    #: the builder attaches and places them at the datacenter's site
    aux_processes: Callable[[Any], Sequence[Any]] = lambda dc: ()
    #: the keyword overrides the factory takes (``dc_params``)
    params: AbstractSet[str] = frozenset({"num_partitions"})


#: a Saturn-family factory's overrides: the DatacenterParams fields it
#: does not set itself
_SATURN_PARAMS = frozenset(
    f.name for f in fields(DatacenterParams)) - {"name", "site", "consistency"}


def _saturn(consistency: str) -> Callable[..., SaturnDatacenter]:
    def factory(sim, site, replication, cost_model, clock, metrics=None,
                **params) -> SaturnDatacenter:
        return SaturnDatacenter(
            sim, DatacenterParams(name=site, site=site,
                                  consistency=consistency, **params),
            replication, cost_model, clock, metrics=metrics)
    return factory


def _baseline(cls: type, **fixed: Any) -> Callable[..., Any]:
    def factory(sim, site, *args, **kwargs):
        return cls(sim, site, site, *args, **fixed, **kwargs)
    return factory


def _label_bytes(dc: SaturnDatacenter) -> int:
    return SATURN_LABEL_BYTES * dc.proxy.labels_processed


def _stamp_bytes(dc) -> int:
    return dc.metadata_bytes_sent


def _dep_list_bytes(dc: ExplicitDatacenter) -> int:
    return EXPLICIT_DEP_BYTES * sum(dc.dep_list_sizes)


PROTOCOLS: Dict[str, Protocol] = {p.name: p for p in (
    Protocol("saturn", "the paper's system: labels through a serializer tree",
             _saturn("saturn"), label_max, _label_bytes, has_tree=True,
             params=_SATURN_PARAMS),
    Protocol("saturn-ts", "the P-configuration: timestamp-order fallback only",
             _saturn("timestamp"), label_max, _label_bytes,
             params=_SATURN_PARAMS),
    Protocol("eventual", "eventual consistency: the throughput upper / "
             "latency lower bound", _saturn("eventual"), label_max,
             lambda dc: 0, params=_SATURN_PARAMS),
    Protocol("gentlerain", "GentleRain [26]: one scalar, global stable time",
             _baseline(GentleRainDatacenter), gentlerain_merge, _stamp_bytes),
    Protocol("cure", "Cure [3]: a vector entry per datacenter",
             _baseline(CureDatacenter), cure_merge, _stamp_bytes),
    Protocol("eunomia", "Eunomia: per-site sequencer, deferred stabilization",
             _baseline(EunomiaDatacenter), eunomia_merge,
             lambda dc: (dc.metadata_bytes_sent
                         + dc.sequencer.metadata_bytes_sent),
             aux_processes=lambda dc: (dc.sequencer,),
             params=frozenset({"num_partitions", "batch_period"})),
    Protocol("okapi", "Okapi: hybrid-clock vectors, global-cut stabilization",
             _baseline(OkapiDatacenter), cure_merge, _stamp_bytes),
    Protocol("cops", "COPS-style explicit dependencies, pruned on write",
             _baseline(ExplicitDatacenter), explicit_merge, _dep_list_bytes),
    Protocol("cops-noprune", "COPS-style explicit dependencies, never pruned",
             _baseline(ExplicitDatacenter, prune_on_write=False),
             explicit_merge, _dep_list_bytes),
)}

#: every system name, in table order (the ``--system`` choices)
SYSTEMS = tuple(PROTOCOLS)


def protocol_named(name: str) -> Protocol:
    """Table lookup; the one "unknown system" error every reader raises."""
    try:
        return PROTOCOLS[name]
    except KeyError:
        raise ValueError(f"unknown system {name!r}; "
                         f"expected one of {tuple(PROTOCOLS)}") from None


def check_params(system: str, params: Mapping[str, Any],
                 beacon_period: float = 0.0, overload: Any = None,
                 auto_failover: bool = False) -> None:
    """Reject what *system*'s datacenters cannot run, on either kernel
    (``ClusterConfig`` and ``net.spec.ClusterSpec`` both call it)."""
    protocol = protocol_named(system)
    unknown = sorted(set(params) - protocol.params)
    if unknown:
        # a misspelt key would fail only inside the factory, on each node
        raise ValueError(f"{system!r} datacenters take no parameter "
                         f"{', '.join(map(repr, unknown))}; expected one of "
                         f"{sorted(protocol.params)}")
    if not protocol.has_tree:
        # the failover coordinator, beacons and overload bounds act on the
        # tree: without one they are dropped or fail in a factory
        for name, wanted in (("auto_failover", auto_failover),
                             ("beacon_period", beacon_period > 0),
                             ("overload", overload is not None)):
            if wanted:
                raise ValueError(f"{name} needs a serializer tree; "
                                 f"{system!r} has none")
    if params.get("beacon_timeout", 0) > 0 and beacon_period <= 0:
        # beacons are the detector's only evidence, of silence and of
        # recovery alike: without them every datacenter degrades
        raise ValueError("beacon_timeout needs beacon_period > 0: the "
                         "failure detector listens for serializer beacons")
    for key in ("sink_credits", "sink_buffer_cap"):
        if key in params:
            # credits only return from a serializer with a service rate,
            # which OverloadConfig checks comes with them
            raise ValueError(f"{key} is an overload knob: only "
                             f"overload=OverloadConfig(...) sets it")


class Deployment:
    """The one site builder for both kernels: construct the datacenters
    of *sites*, then :meth:`attach` them with this host's share of the
    tree — on a socket node only once it has routes, as an actor reachable
    before its replies can be routed drops them.  ``attach_tracer``
    instruments the result as it does a ``Cluster``."""

    def __init__(self, sim: Any, network: Any, protocol: Protocol,
                 replication: Any, sites: Sequence[str],
                 clock: Callable[[], Any], metrics: Any,
                 params: Mapping[str, Any], overload: Any = None) -> None:
        self.sim, self.network, self.protocol = sim, network, protocol
        self.replication, self.service_rate = replication, 0.0
        if overload is not None:
            params = dict(params, sink_buffer_cap=overload.sink_buffer_cap,
                          sink_credits=overload.sink_credits)
            self.service_rate = overload.serializer_service_rate
        cost_model = CostModel()
        self.datacenters: Dict[str, Any] = {
            site: protocol.datacenter(sim, site, replication, cost_model,
                                      clock(), metrics=metrics, **params)
            for site in sites}
        #: what the datacenters run besides themselves (Eunomia's sequencer)
        self.aux_processes: List[Any] = [
            process for dc in self.datacenters.values()
            for process in protocol.aux_processes(dc)]
        self.service = self.manager = self.failover = None

    def attach(self, topology: Optional[TreeTopology] = None,
               hosted: Optional[AbstractSet[str]] = None,
               auto_failover: bool = False, **service_kw: Any) -> None:
        """Install epoch 0 of *topology* (default: a star on the first
        site) with the serializers in *hosted* (``None``: all), *service_kw*
        being ``SaturnService`` keywords; attach and place the rest."""
        if self.protocol.has_tree:
            self.service = SaturnService(
                self.sim, self.network, self.replication,
                serializer_service_rate=self.service_rate, **service_kw)
            sites = list(self.datacenters)
            topology = topology or TreeTopology.star(sites[0],
                                                     dict(zip(sites, sites)))
            self.service.install_tree(topology, epoch=0, hosted=hosted)
            self.manager = ReconfigurationManager(
                self.service, list(self.datacenters.values()))
        for site, dc in self.datacenters.items():
            if self.service is not None:
                dc.saturn = self.service
            for process in (dc, *self.protocol.aux_processes(dc)):
                process.attach_network(self.network)
                self.network.place(process.name, site)
        if auto_failover:
            self.failover = AutoFailover(self.manager)
            for dc in self.datacenters.values():
                if dc.failover is not None:
                    dc.failover.coordinator = self.failover
