"""The protocol table: every system under study, one entry each.

A :class:`Protocol` is what a builder needs to put a system under an
unchanged client library and workload (the §4 decomposition, and how §7.3
swaps GentleRain and Cure in): a datacenter factory, the client's stamp
merge function, how to count its dependency-metadata bytes, whether a
Saturn serializer tree carries its labels, and any processes a datacenter
runs besides itself.  ``Cluster``, ``ClusterConfig`` validation, the
bytes column of the ``five-way`` entry of
:data:`~repro.harness.experiments.EXPERIMENTS`, the mc/chaos scenarios and
``saturn-repro list`` all read :data:`PROTOCOLS`; adding a system is one
entry here plus its datacenter module.

Factories share one call shape::

    factory(sim, site, replication, cost_model, clock,
            num_partitions=..., metrics=..., **overrides) -> datacenter

where ``overrides`` is ``ClusterConfig.dc_params``: the remaining
:class:`~repro.datacenter.datacenter.DatacenterParams` fields for the
Saturn family, constructor keywords (Eunomia's ``batch_period``) for a
baseline.  Every factory returns a
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

from dataclasses import dataclass
from typing import Any, Callable, Dict, Sequence

from repro.baselines.cure import CureDatacenter, cure_merge
from repro.baselines.eunomia import EunomiaDatacenter, eunomia_merge
from repro.baselines.explicit import ExplicitDatacenter, explicit_merge
from repro.baselines.gentlerain import GentleRainDatacenter, gentlerain_merge
from repro.baselines.okapi import OkapiDatacenter
from repro.core.label import label_max
from repro.datacenter.datacenter import DatacenterParams, SaturnDatacenter

__all__ = ["Protocol", "PROTOCOLS", "SYSTEMS", "protocol_named",
           "SATURN_LABEL_BYTES"]

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
             _saturn("saturn"), label_max, _label_bytes, has_tree=True),
    Protocol("saturn-ts", "the P-configuration: timestamp-order fallback only",
             _saturn("timestamp"), label_max, _label_bytes),
    Protocol("eventual", "eventual consistency: the throughput upper / "
             "latency lower bound", _saturn("eventual"), label_max,
             lambda dc: 0),
    Protocol("gentlerain", "GentleRain [26]: one scalar, global stable time",
             _baseline(GentleRainDatacenter), gentlerain_merge, _stamp_bytes),
    Protocol("cure", "Cure [3]: a vector entry per datacenter",
             _baseline(CureDatacenter), cure_merge, _stamp_bytes),
    Protocol("eunomia", "Eunomia: per-site sequencer, deferred stabilization",
             _baseline(EunomiaDatacenter), eunomia_merge,
             lambda dc: (dc.metadata_bytes_sent
                         + dc.sequencer.metadata_bytes_sent),
             aux_processes=lambda dc: (dc.sequencer,)),
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
