"""The Transport seam (ROADMAP item 1).

Protocol actors never name a concrete network class: ``Process.send``
goes through whatever ``attach_network`` handed the actor, and the only
calls that object must answer are the three below.  The interface is a
:class:`typing.Protocol` (structural typing) so the deterministic
:class:`~repro.sim.network.Network` conforms *without* the kernel
importing upward into this package — conformance of both implementations
is pinned by ``tests/net/test_transport_protocol.py``.

Likewise :class:`Kernel` is the structural slice of
:class:`~repro.sim.engine.Simulator` that actors and the sanctioned seam
modules (``sim.clock``, ``sim.cpu``) actually use; the realtime
implementation is :class:`~repro.net.kernel.RealtimeKernel`.

The determinism boundary runs exactly here: everything *above* a
transport (serializers, sinks, proxies, gears, clients) is audited
sim-pure (ARCH101) and behaves identically on either side; everything
below is allowed to read wall clocks and touch sockets.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable

__all__ = ["Transport", "Kernel", "TimerHandle"]


@runtime_checkable
class TimerHandle(Protocol):
    """A cancellable timer returned by :meth:`Kernel.schedule`."""

    def cancel(self) -> None: ...


@runtime_checkable
class Transport(Protocol):
    """Message fabric between named actors.

    Implementations must preserve per-link FIFO order: two messages sent
    from the same ``src`` to the same ``dst`` are delivered in send
    order (Saturn's serializer-tree channels require it, §5.3 of the
    paper).  Delivery invokes ``process.deliver(src, message)``
    asynchronously — never re-entrantly inside :meth:`send`: the sim
    network makes one handle-free ``Simulator.call_at`` entry per
    message, the TCP transport one ``RealtimeKernel.call_soon`` entry on
    the kernel's FIFO ready queue, for local and decoded deliveries alike.
    """

    def register(self, process: Any) -> None:
        """Make *process* addressable under ``process.name``."""
        ...

    def place(self, process_name: str, site: str) -> None:
        """Associate a process with a geographic site (latency hint;
        real transports may ignore it)."""
        ...

    def send(self, src: str, dst: str, message: Any,
             size_bytes: int = 0) -> None:
        """Queue *message* for FIFO delivery from *src* to *dst*."""
        ...


@runtime_checkable
class Kernel(Protocol):
    """The scheduler slice actors use (via ``Process.set_timer/every``).

    ``now`` is milliseconds on some monotonic clock: simulated time on
    the sim kernel, wall-anchored time on the realtime kernel (so
    :class:`~repro.sim.clock.PhysicalClock` timestamps stay comparable
    across nodes).
    """

    @property
    def now(self) -> float: ...

    def schedule(self, delay: float,
                 callback: Callable[[], None]) -> TimerHandle: ...

    def schedule_at(self, time: float,
                    callback: Callable[[], None]) -> TimerHandle: ...
