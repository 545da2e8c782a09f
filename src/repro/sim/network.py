"""Simulated message network.

The network delivers messages between named :class:`~repro.sim.process.Process`
instances with configurable one-way latency.  Two properties matter for
Saturn's correctness and are guaranteed here:

* **FIFO links** — messages between an ordered pair of processes are
  delivered in send order even when latency fluctuates (a later message never
  overtakes an earlier one on the same link).  Saturn's serializer tree
  requires FIFO channels (§5.3 of the paper).
* **Determinism** — a send's arrival time is a function of the link and
  the send instant alone, so executions are reproducible.

One-way latency of a (src, dst) link is its *base* — the site-level
latency matrix when both processes are placed (see :meth:`Network.place`),
``default_latency`` otherwise — plus any injected extra delay, plus the
model checker's optional per-send perturbation.  The base and the target
process never change between :meth:`Network.place` calls, so they are
resolved once per link, on its first send, and kept in the link's state;
``place`` drops the resolved routes of the placed process's links only.

:class:`Network` is the *simulated* implementation of the
:class:`repro.net.transport.Transport` protocol (``register`` / ``place``
/ ``send``); :class:`repro.net.tcp.TcpTransport` is the real-network one.
Protocol actors hold either implementation through the same three
methods, so everything above this seam is transport-agnostic.

Instrumentation watches the fabric through :attr:`Network.observers`, a
tuple of passive observers (the runtime FIFO audit and the model
checker's routing oracles).  While it is non-empty the network
numbers each link's sends 1, 2, ... itself and calls every observer's
``on_send(src, dst, message, arrival)`` when a message goes on the wire
and ``on_deliver(src, dst, seq, message)`` just before the target
receives it; held messages are observed when they are re-sent.  Empty,
a send is one truthiness test away from the untraced path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.sim.engine import Simulator
from repro.sim.process import Process

__all__ = ["Network", "LatencyModel"]


class LatencyModel:
    """One-way latency between *sites* (e.g. EC2 regions), in ms.

    The matrix is symmetric by construction; intra-site latency defaults to
    ``local_latency``.
    """

    def __init__(self, local_latency: float = 0.5) -> None:
        self._latency: Dict[Tuple[str, str], float] = {}
        self.local_latency = local_latency

    def set(self, a: str, b: str, latency: float) -> None:
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self._latency[(a, b)] = latency
        self._latency[(b, a)] = latency

    def get(self, a: str, b: str) -> float:
        if a == b:
            return self.local_latency
        try:
            return self._latency[(a, b)]
        except KeyError:
            raise KeyError(f"no latency configured between sites {a!r} and {b!r}")

    def sites(self) -> set:
        found = set()
        for a, b in self._latency:
            found.add(a)
            found.add(b)
        return found


class _LinkState:
    """Per ordered-pair state: FIFO clamp, faults and the resolved route.

    ``held`` buffers messages sent while the link is down (partitioned or
    an endpoint isolated); they are re-sent in order when the outage ends.
    ``target`` / ``base`` are the destination process and base latency,
    resolved on the first send (``target is None`` means unresolved).
    ``observed`` counts the sends made while observers were installed (the
    per-link sequence number they see); untraced sends leave it alone.
    """

    __slots__ = ("last_delivery", "extra_delay", "partitioned", "held",
                 "target", "base", "observed")

    def __init__(self) -> None:
        self.last_delivery = 0.0
        self.extra_delay = 0.0
        self.partitioned = False
        self.held: Optional[list] = None
        self.target: Optional[Process] = None
        self.base = 0.0
        self.observed = 0


class Network:
    """Message fabric for all simulated processes."""

    def __init__(self, sim: Simulator, latency_model: Optional[LatencyModel] = None,
                 default_latency: float = 0.5) -> None:
        self.sim = sim
        self.latency_model = latency_model
        self.default_latency = default_latency
        self._processes: Dict[str, Process] = {}
        self._sites: Dict[str, str] = {}
        self._links: Dict[Tuple[str, str], _LinkState] = {}
        #: process name -> the states of the links it is an endpoint of
        self._links_of: Dict[str, List[_LinkState]] = {}
        #: processes cut off from everyone (n-1 partitions in one flag);
        #: kept as a set so the hot send path pays one truthiness check
        #: when no isolation fault is active.
        self._isolated: set = set()
        self.messages_sent = 0
        self.bytes_sent = 0
        #: passive observers, called in order (see the module docstring);
        #: they must not send, schedule or change what they are shown.
        #: Install one with ``network.observers += (observer,)``.
        self.observers: Tuple[Any, ...] = ()
        #: optional bounded delay perturbation (see repro.analysis.mc).
        #: When set, ``perturb(src, dst) -> float`` is called once per
        #: message send and its (non-negative) result is added to the
        #: arrival time.  The FIFO clamp below still applies, so link
        #: discipline is preserved under any perturbation.
        self.perturb: Optional[Any] = None

    # -- registration ------------------------------------------------------

    def register(self, process: Process) -> None:
        if process.name in self._processes:
            raise ValueError(f"duplicate process name {process.name!r}")
        self._processes[process.name] = process

    def place(self, process_name: str, site: str) -> None:
        """Assign a process to a geographic site (latency-matrix row)."""
        self._sites[process_name] = site
        for state in self._links_of.get(process_name, ()):
            state.target = None  # base latencies re-resolve on next send

    def process(self, name: str) -> Process:
        return self._processes[name]

    # -- link control (fault / delay injection) -----------------------------

    def _link(self, src: str, dst: str) -> _LinkState:
        key = (src, dst)
        state = self._links.get(key)
        if state is None:
            state = _LinkState()
            self._links[key] = state
            self._links_of.setdefault(src, []).append(state)
            if dst != src:
                self._links_of.setdefault(dst, []).append(state)
        return state

    def inject_extra_delay(self, src: str, dst: str, extra: float,
                           symmetric: bool = True) -> None:
        """Add *extra* ms on top of the base latency (Fig. 6 experiments)."""
        self._link(src, dst).extra_delay = extra
        if symmetric:
            self._link(dst, src).extra_delay = extra

    def inject_site_delay(self, site_a: str, site_b: str, extra: float) -> None:
        """Add extra delay between every process pair across two sites."""
        for name_a, sa in self._sites.items():
            for name_b, sb in self._sites.items():
                if {sa, sb} == {site_a, site_b} and name_a != name_b:
                    self._link(name_a, name_b).extra_delay = extra

    def partition(self, src: str, dst: str, symmetric: bool = True) -> None:
        """Sever the link until healed.

        Channels are *reliable* FIFO transports (the paper's model, and
        what TCP gives a real deployment): a partition delays messages, it
        does not silently lose them.  Messages sent while the link is down
        are held and re-sent — in order, with fresh latency — when the
        outage ends.  Only a process *crash* loses state, and that is
        announced by the serializers' beacon incarnation numbers; silent
        loss on a live channel would be undetectable by any protocol.
        """
        self._link(src, dst).partitioned = True
        if symmetric:
            self._link(dst, src).partitioned = True

    def heal(self, src: str, dst: str, symmetric: bool = True) -> None:
        self._link(src, dst).partitioned = False
        if symmetric:
            self._link(dst, src).partitioned = False
        self._flush_held(src, dst)
        if symmetric:
            self._flush_held(dst, src)

    def isolate(self, name: str) -> None:
        """Cut *name* off from every other process (both directions).

        Same reliable-channel semantics as :meth:`partition`: traffic to
        and from the isolated process is held, not lost, and delivered
        once it rejoins.
        """
        self._isolated.add(name)

    def rejoin(self, name: str) -> None:
        """Undo :meth:`isolate` and release the traffic held meanwhile
        (messages already in flight at isolation time were unaffected)."""
        self._isolated.discard(name)
        for (src, dst), state in list(self._links.items()):
            if state.held and (src == name or dst == name):
                self._flush_held(src, dst)

    def _flush_held(self, src: str, dst: str) -> None:
        """Re-send messages held across an outage, preserving send order.

        While the link is still down from another cause (e.g. the far
        endpoint of a healed link remains isolated), :meth:`send` holds them
        again, in order, until the last obstruction clears.
        """
        state = self._links.get((src, dst))
        if state is None or not state.held:
            return
        held = state.held
        state.held = None
        for message, size_bytes in held:
            self.send(src, dst, message, size_bytes)

    # -- latency -----------------------------------------------------------

    def base_latency(self, src: str, dst: str) -> float:
        site_src = self._sites.get(src)
        site_dst = self._sites.get(dst)
        if site_src is not None and site_dst is not None and self.latency_model:
            return self.latency_model.get(site_src, site_dst)
        return self.default_latency

    def _resolve(self, src: str, dst: str) -> _LinkState:
        """The link's state with its route filled in (first send, or first
        send after :meth:`place`); an unknown *dst* caches nothing."""
        target = self._processes.get(dst)
        if target is None:
            raise KeyError(f"unknown destination process {dst!r}")
        state = self._link(src, dst)
        state.base = self.base_latency(src, dst)
        state.target = target
        return state

    # -- sending -----------------------------------------------------------

    def send(self, src: str, dst: str, message: Any, size_bytes: int = 0) -> None:
        """Queue *message* for FIFO delivery from *src* to *dst*."""
        state = self._links.get((src, dst))
        if state is None or state.target is None:
            state = self._resolve(src, dst)
        if state.partitioned or (self._isolated and
                                 (src in self._isolated or
                                  dst in self._isolated)):
            # reliable channel across an outage: hold for re-send at heal
            # or rejoin time (observers see the eventual re-send)
            if state.held is None:
                state.held = []
            state.held.append((message, size_bytes))
            return
        sim = self.sim
        arrival = sim.now + (state.base + state.extra_delay)
        perturb = self.perturb
        if perturb is not None:
            extra = perturb(src, dst)
            if extra < 0:
                raise ValueError("delay perturbation must be non-negative")
            arrival += extra
        # FIFO: never deliver before a previously sent message on this link.
        if arrival < state.last_delivery:
            arrival = state.last_delivery
        state.last_delivery = arrival
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        observers = self.observers
        if not observers:
            sim.call_at(arrival, state.target.deliver, src, message)
            return
        seq = state.observed = state.observed + 1
        for observer in observers:
            observer.on_send(src, dst, message, arrival)
        sim.call_at(arrival, self._observed_deliver, state.target, src, dst,
                    seq, message)

    def _observed_deliver(self, target: Process, src: str, dst: str,
                          seq: int, message: Any) -> None:
        for observer in self.observers:
            observer.on_deliver(src, dst, seq, message)
        target.deliver(src, message)
