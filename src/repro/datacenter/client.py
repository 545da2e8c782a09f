"""Client library and closed-loop client process.

The client library keeps the client's causal past as an opaque *stamp*
(Saturn: the greatest :class:`~repro.core.label.Label` observed; GentleRain:
a scalar; Cure: a vector).  The stamp is piggybacked on every request and
folded with every label returned by the store, exactly as §4.1 prescribes.

:class:`ClientProcess` is a Basho-Bench-style closed-loop load generator:
it attaches to its preferred datacenter and then issues operations with zero
think time, pulling each next operation from a workload generator.  Remote
reads follow the full migration dance of §4.4 (migrate out, attach, read,
migrate back, attach home).

The *pacing* decisions are isolated in two overridable hooks so arrival
models other than the closed loop can reuse the whole state machine:
``_on_ready`` fires once the initial attach completes and ``_on_op_complete``
after every finished operation; both default to issuing the next workload
operation immediately (the closed loop).  The open-loop subclass
(:class:`repro.workloads.openloop.OpenLoopClient`) overrides them to hand
control back to its arrival-process source instead.

Admission control (:mod:`repro.datacenter.overload`) may reject an update
before it reaches storage; the client counts the rejection (``ops_rejected``)
without folding any stamp and lets the arrival model decide what happens
next — a closed-loop client simply issues its next operation.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.label import label_max
from repro.core.naming import dc_process_name
from repro.datacenter.messages import (AttachOk, ClientAttach, ClientMigrate,
                                       ClientRead, ClientUpdate, MigrateReply,
                                       ReadReply, UpdateReply)
from repro.sim.engine import Simulator
from repro.sim.process import Process
from repro.workloads.ops import ReadOp, RemoteReadOp, UpdateOp

__all__ = ["ClientProcess"]


class ClientProcess(Process):
    """A closed-loop client bound to a preferred datacenter.

    Parameters
    ----------
    workload:
        callable ``workload(client) -> op`` producing the next operation,
        or ``None`` to stop the client.
    merge:
        stamp merge function (defaults to Saturn's ``label_max``).
    metrics:
        optional recorder with ``record_op(kind, latency, at)``.
    """

    def __init__(self, sim: Simulator, client_id: str, home_dc: str,
                 workload: Callable[["ClientProcess"], object],
                 merge: Callable[[object, object], object] = label_max,
                 metrics=None, max_ops: Optional[int] = None,
                 execution_log=None) -> None:
        super().__init__(sim, f"client:{client_id}")
        self.client_id = client_id
        self.home_dc = home_dc
        self.current_dc = home_dc
        self.workload = workload
        self.merge = merge
        self.metrics = metrics
        self.max_ops = max_ops
        self.execution_log = execution_log
        #: exact causal past: every version (ts, src) this client observed
        self._observed: set = set()
        self._observed_max_per_key: dict = {}

        self.stamp: object = None
        self.ops_completed = 0
        self.ops_rejected = 0
        self._op: Optional[object] = None
        self._op_started = 0.0
        self._phase = "idle"
        self._running = False

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Attach to the preferred datacenter, then start the op loop."""
        self._running = True
        self._phase = "initial-attach"
        self._send_dc(self.current_dc, ClientAttach(self.client_id, None))

    def stop(self) -> None:
        self._running = False

    @property
    def running(self) -> bool:
        """False before :meth:`start` and once the op loop has ended."""
        return self._running

    def observed(self, key: str):
        """Greatest version of *key* this client has read or written, or
        ``None`` (tracked only while an execution log is attached)."""
        return self._observed_max_per_key.get(key)

    def _send_dc(self, dc: str, message) -> None:
        self.send(dc_process_name(dc), message)

    def _observe(self, stamp: object) -> None:
        if stamp is not None:
            self.stamp = self.merge(self.stamp, stamp)

    # ------------------------------------------------------------------
    # operation loop
    # ------------------------------------------------------------------

    def _next_op(self) -> None:
        if not self._running:
            return
        if self.max_ops is not None and self.ops_completed >= self.max_ops:
            self._running = False
            return
        op = self.workload(self)
        if op is None:
            self._running = False
            return
        self._dispatch(op)

    def _dispatch(self, op: object) -> None:
        """Issue one operation (the op-type -> request-message mapping)."""
        self._op = op
        self._op_started = self.sim.now
        if isinstance(op, ReadOp):
            self._phase = "read"
            self._send_dc(self.current_dc, ClientRead(self.client_id, op.key))
        elif isinstance(op, UpdateOp):
            self._phase = "update"
            self._send_dc(self.current_dc,
                          ClientUpdate(self.client_id, op.key, op.value_size,
                                       self.stamp))
        elif isinstance(op, RemoteReadOp):
            self._phase = "migrate-out"
            self._send_dc(self.current_dc,
                          ClientMigrate(self.client_id, op.target_dc, self.stamp))
        else:
            raise TypeError(f"unknown operation {op!r}")

    def _complete_op(self, kind: str) -> None:
        self.ops_completed += 1
        if self.metrics is not None:
            self.metrics.record_op(kind, self.sim.now - self._op_started,
                                   self.sim.now)
        self._op = None
        self._phase = "idle"
        self._on_op_complete()

    # -- arrival-model hooks ------------------------------------------------

    def _on_ready(self) -> None:
        """Initial attach finished; the closed loop starts issuing."""
        self._next_op()

    def _on_op_complete(self) -> None:
        """An operation finished; the closed loop issues the next one."""
        self._next_op()

    def _on_op_rejected(self) -> None:
        """Admission control refused the update (no stamp to fold)."""
        self.ops_rejected += 1
        self._op = None
        self._phase = "idle"
        self._on_op_complete()

    # ------------------------------------------------------------------
    # replies
    # ------------------------------------------------------------------

    def _on_update_reply(self, sender: str, message: UpdateReply) -> None:
        if message.rejected:
            self._on_op_rejected()
        else:
            self._observe(message.label)
            self._log_update(message)
            self._complete_op("update")

    # -- execution-log hooks (only active when a checker is attached) -------

    def _log_read(self, message: ReadReply) -> None:
        if self.execution_log is None:
            return
        observed_max = self._observed_max_per_key.get(message.key)
        self.execution_log.record_read(self.client_id, self.current_dc,
                                       message.key, message.version,
                                       observed_max)
        if message.version is not None:
            self._track_version(message.key, message.version)

    def _log_update(self, message: UpdateReply) -> None:
        if self.execution_log is None:
            return
        if message.version is not None:
            self.execution_log.record_update_deps(message.version,
                                                  frozenset(self._observed))
            self._track_version(message.key, message.version)

    def _track_version(self, key: str, version) -> None:
        self._observed.add(version)
        current = self._observed_max_per_key.get(key)
        if current is None or version > current:
            self._observed_max_per_key[key] = version

    def _on_attach_ok(self, sender: str, message: AttachOk) -> None:
        if self._phase == "initial-attach":
            self._on_ready()
        elif self._phase == "attach-remote":
            op = self._op
            assert isinstance(op, RemoteReadOp)
            self._phase = "remote-read"
            self._send_dc(self.current_dc, ClientRead(self.client_id, op.key))
        elif self._phase == "attach-home":
            self._complete_op("remote_read")
        else:  # pragma: no cover - protocol error
            raise RuntimeError(f"unexpected AttachOk in phase {self._phase}")

    def _on_read_reply(self, sender: str, message: ReadReply) -> None:
        self._observe(message.label)
        self._log_read(message)
        if self._phase == "read":
            self._complete_op("read")
        elif self._phase == "remote-read":
            op = self._op
            assert isinstance(op, RemoteReadOp)
            self._phase = "migrate-back"
            self._send_dc(self.current_dc,
                          ClientMigrate(self.client_id, self.home_dc, self.stamp))
        else:  # pragma: no cover - protocol error
            raise RuntimeError(f"unexpected ReadReply in phase {self._phase}")

    def _on_migrate_reply(self, sender: str, message: MigrateReply) -> None:
        self._observe(message.label)
        if self._phase == "migrate-out":
            op = self._op
            assert isinstance(op, RemoteReadOp)
            self.current_dc = op.target_dc
            self._phase = "attach-remote"
            self._send_dc(self.current_dc,
                          ClientAttach(self.client_id, self.stamp))
        elif self._phase == "migrate-back":
            self.current_dc = self.home_dc
            self._phase = "attach-home"
            self._send_dc(self.current_dc,
                          ClientAttach(self.client_id, self.stamp))
        else:  # pragma: no cover - protocol error
            raise RuntimeError(f"unexpected MigrateReply in phase {self._phase}")

    _HANDLERS = {
        AttachOk: _on_attach_ok,
        ReadReply: _on_read_reply,
        UpdateReply: _on_update_reply,
        MigrateReply: _on_migrate_reply,
    }
