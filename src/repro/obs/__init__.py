"""repro.obs: simulation-native observability.

One :class:`ObsHub` per run bundles the three pieces:

* :class:`~repro.obs.metrics.MetricsRegistry` — counters / gauges /
  histograms keyed by component, windowed over simulated time;
* :class:`~repro.obs.trace.LabelTracer` — per-label lifecycle event
  chains plus cluster annotations (epoch changes, failover transitions,
  degraded-mode drains);
* :class:`NetworkTap` — a passive :attr:`repro.sim.network.Network.trace`
  consumer feeding message/batch counters (only attached where a trace is
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

from repro.datacenter.messages import LabelBatch
from repro.obs.export import (SCHEMA, export_chrome, export_jsonl,
                              trace_digest)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import LabelTracer, Span, TraceEvent, chain_problems

__all__ = ["ObsHub", "NetworkTap", "LabelTracer", "MetricsRegistry",
           "TraceEvent", "Span", "SCHEMA", "chain_problems",
           "attach_tracer", "export_jsonl", "export_chrome", "trace_digest"]


class NetworkTap:
    """Non-primary network-trace consumer: traffic counters only.

    Implements the :attr:`~repro.sim.network.Network.trace` protocol so it
    can ride a :class:`~repro.analysis.mc.oracles.TraceTee` behind the
    HazardMonitor.  It is never installed as the *only* trace by the
    harness: that would put a per-message hook on every obs run.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry

    def on_send(self, src: str, dst: str, message: Any,
                arrival: float) -> None:
        registry = self.registry
        registry.counter("network", "messages").inc(at=arrival)
        if isinstance(message, LabelBatch):
            registry.counter("network", "label_batches").inc(at=arrival)
            registry.counter("network", "labels").inc(len(message.labels),
                                                      at=arrival)
            registry.histogram("network", "batch_size").observe(
                len(message.labels), at=arrival)

    def on_deliver(self, src: str, dst: str, seq: int, message: Any) -> None:
        pass

    def on_drop(self, src: str, dst: str, message: Any) -> None:
        self.registry.counter("network", "drops").inc()


class ObsHub:
    """Per-run bundle of registry + tracer + network tap."""

    def __init__(self, sim, network=None, window: float = 50.0) -> None:
        self.sim = sim
        self.network = network
        self.registry = MetricsRegistry(window=window)
        self.tracer = LabelTracer(registry=self.registry)
        self.net_tap = NetworkTap(self.registry)

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


def attach_tracer(scenario) -> ObsHub:
    """Instrument a built (not yet run) model-checking / chaos
    :class:`~repro.analysis.mc.scenario.Scenario`.

    The scenario already carries a network trace (HazardMonitor + routing
    oracle); the tap rides the tee behind them, so the monitor's digest
    is unchanged.
    """
    from repro.analysis.mc.oracles import TraceTee

    hub = ObsHub(scenario.sim, scenario.network)
    tracer = hub.tracer
    scenario.network.trace = TraceTee(scenario.monitor,
                                      scenario.partial_oracle, hub.net_tap)
    service = scenario.service
    if service is not None:
        service.obs = tracer
        for epoch in service.epochs():
            for tree_name in sorted(service.serializers(epoch)):
                service.serializers(epoch)[tree_name].obs = tracer
    for name in sorted(scenario.datacenters):
        dc = scenario.datacenters[name]
        if hasattr(dc, "sink"):
            dc.sink.obs = tracer
            dc.proxy.obs = tracer
            if dc.failover is not None:
                dc.failover.obs = tracer
        else:
            # stabilization-baseline datacenter (Eunomia/Okapi scenarios):
            # one tracer hook pair, issue -> visible
            dc.obs = tracer
    if scenario.manager is not None:
        scenario.manager.obs = tracer
    return hub
