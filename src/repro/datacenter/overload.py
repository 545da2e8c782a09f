"""Overload machinery: bounded queues, backpressure, admission control.

The paper's evaluation never pushes Saturn past saturation (closed-loop
clients cannot), so it never has to answer what happens when label sinks
and serializers queue up.  This module adds the missing machinery as a
strictly opt-in configuration (:class:`OverloadConfig`); with it unset,
every component behaves — and schedules — exactly as before, which the
golden digests pin.

The backpressure chain, outermost-in:

1. **Serializer service queue** — an ingress serializer services sink
   batches at ``serializer_service_rate`` labels/ms instead of routing
   them for free.  Arriving batches wait in a FIFO; the serializer
   returns a :class:`~repro.datacenter.messages.LabelCredit` to the
   originating sink as each batch is serviced.
2. **Sink flow control** — a sink may have at most ``sink_credits``
   labels outstanding (sent, credit not yet returned).  With no credits
   the periodic flush defers and the buffered labels *coalesce* into a
   larger batch; with partial credits a timestamp-ordered prefix ships
   (a prefix of a sorted batch is itself causally valid).  The ingress
   queue therefore never holds more than ``attached_sinks ×
   sink_credits`` labels — the bound is structural, not best-effort.
3. **Admission control** — the number of update labels admitted but not
   yet shipped to Saturn (in partition CPUs, or buffered in the sink) is
   capped at ``sink_buffer_cap``.  A frontend rejects further updates
   (``UpdateReply(rejected=True)``) before they cost storage CPU, which
   is the only place load is shed: once a label exists it is never
   dropped, so every *admitted* update stays causally visible.

Accounting is exact by construction: every offered update is either
rejected at admission, still in flight (admitted-but-unshipped or
unserviced), or shipped through Saturn — the backpressure invariant
tests reconcile these counters against the open-loop source's offered
count with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["OverloadConfig", "AdmissionController"]


@dataclass(frozen=True)
class OverloadConfig:
    """Opt-in overload knobs for one cluster (0 disables a knob).

    ``sink_buffer_cap`` bounds admitted-but-unshipped update labels per
    datacenter (admission control); ``sink_credits`` bounds labels
    outstanding at the ingress serializer per sink (flow control);
    ``serializer_service_rate`` (labels/ms) is the ingress serializers'
    finite service capacity.  Flow control without a service rate (or
    vice versa) is almost always a configuration mistake, so the pair is
    validated together.
    """

    sink_buffer_cap: int = 0
    sink_credits: int = 0
    serializer_service_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.sink_buffer_cap < 0 or self.sink_credits < 0:
            raise ValueError("caps must be non-negative")
        if self.serializer_service_rate < 0:
            raise ValueError("serializer_service_rate must be non-negative")
        if (self.serializer_service_rate > 0) != (self.sink_credits > 0):
            raise ValueError("serializer_service_rate and sink_credits "
                             "must be enabled together")


class AdmissionController:
    """Bounded count of admitted-but-unshipped update labels.

    ``try_admit`` is called by the frontend before submitting an update's
    storage CPU cost; ``on_shipped`` by the label sink as update labels
    leave for Saturn.  The inflight counter therefore covers both the
    partition CPU queues and the sink buffer, and the bound is strict:
    at no instant can more than ``cap`` update labels exist between
    admission and the serializer tree.
    """

    __slots__ = ("cap", "inflight", "admitted", "rejected", "peak_inflight",
                 "obs", "component")

    def __init__(self, cap: int, component: str = "admission") -> None:
        if cap <= 0:
            raise ValueError("cap must be positive")
        self.cap = cap
        self.inflight = 0
        self.admitted = 0
        self.rejected = 0
        self.peak_inflight = 0
        #: opt-in tracer (repro.obs.LabelTracer) + the metrics' component
        self.obs = None
        self.component = component

    def try_admit(self, at: float = 0.0) -> bool:
        if self.inflight >= self.cap:
            self.rejected += 1
            if self.obs is not None:
                self.obs.count(at, self.component, "rejected")
            return False
        self.inflight += 1
        self.admitted += 1
        if self.inflight > self.peak_inflight:
            self.peak_inflight = self.inflight
        if self.obs is not None:
            self.obs.count(at, self.component, "admitted")
            self.obs.gauge(at, self.component, "inflight", self.inflight)
        return True

    def on_shipped(self, count: int, at: float = 0.0) -> None:
        if count <= 0:
            return
        self.inflight = max(0, self.inflight - count)
        if self.obs is not None:
            self.obs.gauge(at, self.component, "inflight", self.inflight)
