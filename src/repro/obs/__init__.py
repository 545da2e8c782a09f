"""repro.obs: simulation-native observability.

One :class:`ObsHub` per run bundles the three pieces:

* :class:`~repro.obs.metrics.MetricsRegistry` — counters / gauges /
  histograms keyed by component, windowed over simulated time;
* :class:`~repro.obs.trace.LabelTracer` — per-label lifecycle event
  chains plus cluster annotations (epoch changes, failover transitions,
  degraded-mode drains);
* :class:`NetworkTap` — a passive :attr:`repro.sim.network.Network.observers`
  entry feeding message/batch counters (only added where an observer is
  already installed, so a run without one pays no per-message hook).

Everything is opt-in: the instrumented components hold ``self.obs = None``
and guard every hook with one attribute test, so a run without a hub pays
a single ``is not None`` check per instrumented code path.  With a hub
attached nothing about the simulation changes either — the tracer
schedules no events and perturbs no channels — which is why a traced run
produces the same :class:`~repro.analysis.runtime.HazardMonitor` digest as
an untraced one, and why double runs export bit-identical traces.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.datacenter.datacenter import SaturnDatacenter
from repro.datacenter.messages import LabelBatch
from repro.obs.export import (SCHEMA, export_chrome, export_jsonl,
                              trace_digest)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (NET_SEND, LabelTracer, Span, TraceEvent,
                             chain_problems)

__all__ = ["ObsHub", "NetworkTap", "LabelTracer", "MetricsRegistry",
           "TraceEvent", "Span", "SCHEMA", "chain_problems",
           "attach_tracer", "export_jsonl", "export_chrome", "trace_digest"]


class NetworkTap:
    """Network observer feeding traffic counters only.

    :func:`attach_tracer` adds it to
    :attr:`~repro.sim.network.Network.observers` only beside an observer
    that is already there (the HazardMonitor, the mc oracles), never as
    the *only* one: that would put a per-message hook on every obs run.
    Messages go into the tracer's log like label events do; the
    ``network/*`` counters and the batch-size histogram are derived from
    it on read.
    """

    def __init__(self, tracer: LabelTracer) -> None:
        self._record = tracer.record

    def on_send(self, src: str, dst: str, message: Any,
                arrival: float) -> None:
        self._record((arrival, NET_SEND, "network",
                      len(message.labels)
                      if isinstance(message, LabelBatch) else -1))

    def on_deliver(self, src: str, dst: str, seq: int, message: Any) -> None:
        pass


class ObsHub:
    """Per-run bundle of registry + tracer + network tap."""

    def __init__(self, sim, network=None, window: float = 50.0) -> None:
        self.sim = sim
        self.network = network
        self.registry = MetricsRegistry(window=window)
        self.tracer = LabelTracer(registry=self.registry)
        self.net_tap = NetworkTap(self.tracer)

    def sample_kernel(self) -> None:
        """Snapshot end-of-run kernel/network gauges."""
        now = self.sim.now
        self.registry.gauge("kernel", "now").set(now, at=now)
        self.registry.gauge("kernel", "events_executed").set(
            self.sim.events_executed, at=now)
        if self.network is not None:
            self.registry.gauge("network", "messages_sent").set(
                self.network.messages_sent, at=now)

    # -- exports ------------------------------------------------------------

    def export_jsonl(self, meta: Optional[dict] = None) -> str:
        return export_jsonl(self.tracer, registry=self.registry, meta=meta)

    def export_chrome(self) -> dict:
        return export_chrome(self.tracer)

    def digest(self, meta: Optional[dict] = None) -> str:
        return trace_digest(self.export_jsonl(meta=meta))


def attach_tracer(deployment) -> ObsHub:
    """Instrument a built, not yet run deployment: a
    :class:`~repro.harness.runner.Cluster` (``ClusterConfig(obs=True)``
    calls this) or an mc/chaos
    :class:`~repro.analysis.mc.scenario.Scenario` — anything with ``sim``,
    ``network``, ``service``, ``datacenters`` and ``manager``.  This is
    the one list of components that receive the tracer and the registry.
    """
    hub = ObsHub(deployment.sim, deployment.network)
    tracer, registry = hub.tracer, hub.registry
    network = deployment.network
    if network.observers:
        # the network is observed anyway (HazardMonitor, the mc oracles),
        # so the tap joins them at no extra per-message cost.  With none
        # the tuple stays empty on purpose: the tap alone would add
        # per-message work to every obs run.
        network.observers += (hub.net_tap,)
    service = deployment.service
    if service is not None:
        # the service hands both to the serializers of later epochs
        service.obs, service.queue_obs = tracer, registry
        for epoch in service.epochs():
            for serializer in service.serializers(epoch).values():
                serializer.obs, serializer.queue_obs = tracer, registry
    for dc in deployment.datacenters.values():
        # every protocol's visible atom (Datacenter.revealed); a baseline's
        # issue atom too — Saturn's comes from its sink
        dc.obs = tracer
        if isinstance(dc, SaturnDatacenter):
            dc.sink.obs = dc.proxy.obs = tracer
            dc.sink.queue_obs = registry
            if dc.failover is not None:
                dc.failover.obs = tracer
            if dc.admission is not None:
                dc.admission.obs = registry
    if deployment.manager is not None:
        deployment.manager.obs = tracer
    return hub
