"""repro.obs: simulation-native observability.

One :class:`ObsHub` per run holds a
:class:`~repro.obs.trace.LabelTracer`: the one log every instrumented
component writes — per-label lifecycle events, cluster annotations (epoch
changes, failover transitions, degraded-mode drains) and queue gauges /
admission counts.  Chains, spans and the component-keyed counters and
gauges (windowed over simulated time) are all read-time folds of that log.

Obs never observes the network: :attr:`repro.sim.network.Network.observers`
holds the oracles only.

Everything is opt-in: the instrumented components hold ``self.obs = None``
and guard every hook with one attribute test, so a run without a hub pays
a single ``is not None`` check per instrumented code path.  With a hub
attached nothing about the simulation changes either — the tracer
schedules no events and perturbs no channels — which is why a traced run
produces the same :class:`~repro.analysis.runtime.HazardMonitor` digest as
an untraced one, and why double runs export bit-identical traces.
"""

from __future__ import annotations

from typing import Optional

from repro.datacenter.datacenter import SaturnDatacenter
from repro.obs.export import SCHEMA, digest_jsonl, export_chrome, export_jsonl
from repro.obs.trace import LabelTracer, Span, TraceEvent, chain_problems

__all__ = ["ObsHub", "LabelTracer", "TraceEvent", "Span", "SCHEMA",
           "chain_problems", "attach_tracer", "export_jsonl", "export_chrome",
           "digest_jsonl"]


class ObsHub:
    """Per-run tracer plus the kernel it samples at the end of the run."""

    def __init__(self, sim, network=None) -> None:
        self.sim = sim
        self.network = network
        self.tracer = LabelTracer()

    def sample_kernel(self) -> None:
        """Record end-of-run kernel/network gauges."""
        now = self.sim.now
        gauge = self.tracer.gauge
        gauge(now, "kernel", "now", now)
        gauge(now, "kernel", "events_executed", self.sim.events_executed)
        if self.network is not None:
            gauge(now, "network", "messages_sent",
                  self.network.messages_sent)

    # -- exports ------------------------------------------------------------

    def export_jsonl(self, meta: Optional[dict] = None) -> str:
        return export_jsonl(self.tracer, meta=meta)

    def export_chrome(self) -> dict:
        return export_chrome(self.tracer)

    def digest(self, meta: Optional[dict] = None) -> str:
        """SHA-256 of :meth:`export_jsonl`, without building the export."""
        return digest_jsonl(self.tracer, meta=meta)


def attach_tracer(deployment) -> ObsHub:
    """Instrument a built, not yet run deployment: a
    :class:`~repro.harness.runner.Cluster` (``ClusterConfig(obs=True)``
    calls this) or an mc/chaos
    :class:`~repro.analysis.mc.scenario.Scenario` — anything with ``sim``,
    ``network``, ``service``, ``datacenters`` and ``manager``.  This is
    the one list of components that receive the tracer; the network is
    left alone.
    """
    hub = ObsHub(deployment.sim, deployment.network)
    tracer = hub.tracer
    service = deployment.service
    if service is not None:
        # the service hands it to the serializers of later epochs
        service.obs = tracer
        for epoch in service.epochs():
            for serializer in service.serializers(epoch).values():
                serializer.obs = tracer
    for dc in deployment.datacenters.values():
        # every protocol's visible atom (Datacenter.revealed); a baseline's
        # issue atom too — Saturn's comes from its sink
        dc.obs = tracer
        if isinstance(dc, SaturnDatacenter):
            dc.sink.obs = dc.proxy.obs = tracer
            if dc.failover is not None:
                dc.failover.obs = tracer
            if dc.admission is not None:
                dc.admission.obs = tracer
    if deployment.manager is not None:
        deployment.manager.obs = tracer
    return hub
