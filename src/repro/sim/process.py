"""Actor base class for simulated distributed components.

Every node in the simulated system (frontend, gear, storage server,
serializer, client, ...) is a :class:`Process` with a unique name.  Processes
communicate exclusively through the :class:`~repro.sim.network.Network`,
which invokes :meth:`Process.receive` on delivery.

Despite living under ``repro.sim``, a Process is transport-agnostic: it
only touches its kernel via ``now``/``schedule`` and its network via the
:class:`repro.net.transport.Transport` protocol surface, so the same
actor runs unmodified on the deterministic simulator or on a
:class:`repro.net.kernel.RealtimeKernel` +
:class:`repro.net.tcp.TcpTransport` (one OS process per node).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, ClassVar, Dict, Optional

from repro.sim.engine import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.network import Network

__all__ = ["Process", "RepeatingTimer"]


class Process:
    """A named actor on the simulation kernel.

    Subclasses declare a ``_HANDLERS`` table that :meth:`receive`
    dispatches on and may use :meth:`set_timer` / :meth:`every` for local
    timeouts.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.network: Optional["Network"] = None
        self._alive = True
        self.restarts = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._alive

    def crash(self) -> None:
        """Fail-stop: the process silently drops everything from now on."""
        self._alive = False

    def recover(self) -> None:
        self._alive = True

    def restart(self) -> None:
        """Bring a crashed process back (the fail-recover model).

        A :class:`RepeatingTimer` whose tick fired while the process was
        down has stopped permanently, so subclasses override
        :meth:`on_restart` to re-arm their periodic machinery.  Which
        state survives the crash is the subclass's call: a serializer is
        stateless, a datacenter keeps its durable store.
        """
        if self._alive:
            return
        self._alive = True
        self.restarts += 1
        self.on_restart()

    def on_restart(self) -> None:
        """Hook for subclasses: re-arm timers / volatile state after restart."""

    # -- messaging ---------------------------------------------------------

    def attach_network(self, network: "Network") -> None:
        self.network = network
        network.register(self)

    def send(self, to: str, message: Any) -> None:
        """Send *message* to the process named *to* via the network."""
        if not self._alive:
            return
        if self.network is None:
            raise RuntimeError(f"process {self.name} has no network attached")
        self.network.send(self.name, to, message)

    #: exact message type -> handler(self, sender, message).  Each actor
    #: declares its own table (a subclass extends its base's with
    #: ``{**Base._HANDLERS, ...}``); no message class is subclassed.  A
    #: row that delegates to a component or an overridable method looks
    #: it up at call time (``lambda self, sender, m: self.proxy.on_x(m)``)
    _HANDLERS: ClassVar[Dict[type, Callable[[Any, str, Any], None]]] = {}

    def receive(self, sender: str, message: Any) -> None:
        """Handle an incoming message: one lookup in ``_HANDLERS``."""
        handler = self._HANDLERS.get(type(message))
        if handler is None:
            raise TypeError(f"{type(self).__name__} has no handler for "
                            f"{message!r}")
        handler(self, sender, message)

    def deliver(self, sender: str, message: Any) -> None:
        """Called by the network; drops messages while crashed."""
        if not self._alive:
            return
        self.receive(sender, message)

    # -- timers ------------------------------------------------------------

    def set_timer(self, delay: float, callback: Callable[[], None]) -> Event:
        """Run *callback* after *delay* ms unless the process has crashed."""

        def _fire() -> None:
            if self._alive:
                callback()

        return self.sim.schedule(delay, _fire)

    def every(self, period: float, callback: Callable[[], None]) -> "RepeatingTimer":
        """Run *callback* every *period* ms, starting one period from now.

        Returns a :class:`RepeatingTimer`; ``cancel()`` stops the chain.
        """
        return RepeatingTimer(self, period, callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class RepeatingTimer:
    """Periodic timer bound to a process; stops when crashed or cancelled."""

    def __init__(self, process: Process, period: float,
                 callback: Callable[[], None]) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self._process = process
        self._period = period
        self._callback = callback
        self._cancelled = False
        self._event = process.sim.schedule(period, self._tick)

    def _tick(self) -> None:
        if self._cancelled or not self._process.alive:
            return
        self._callback()
        self._event = self._process.sim.schedule(self._period, self._tick)

    def cancel(self) -> None:
        self._cancelled = True
        self._event.cancel()
