"""Asyncio TCP implementation of the :class:`~repro.net.transport.Transport`
protocol.

One :class:`TcpTransport` serves one OS process (a *node*) hosting one or
more actors.  Addressing is two-level: actor process names (the same
names the simulator uses — ``dc:I``, ``ser:e0:sI``, ``client:writer-I``)
map to *nodes*, nodes map to listen addresses; both maps come from the
directory service at boot (:meth:`set_routes`).

FIFO guarantee: all frames to a given remote node travel on one
persistent connection, written by one writer task in enqueue order —
TCP then preserves per-link order end-to-end, which is stronger than the
per-(src, dst) FIFO the protocol needs.  Local destinations skip the
socket; both kinds of delivery go through the kernel's FIFO ready queue
(``RealtimeKernel.call_soon``), so they keep that order and never run
re-entrantly inside ``send``.

Batching: the frames enqueued for a peer during one loop turn leave in
one ``write``; every complete frame a ``read`` returns is parsed before
the next ``await``, and their deliveries drain in one loop entry.

Frames for a local destination that has not registered yet (actors boot
in arbitrary order across nodes) are buffered and flushed on
:meth:`register`.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.net import codec
from repro.net.kernel import RealtimeKernel

__all__ = ["TcpTransport"]

log = logging.getLogger("repro.net.tcp")

#: reconnect schedule for a peer whose node is not accepting yet:
#: exponential backoff from base, capped (seconds)
_CONNECT_RETRY_BASE_S = 0.05
_CONNECT_RETRY_CAP_S = 0.5
_CONNECT_ATTEMPTS = 30
#: log a warning every N failed attempts so a dead peer is visible in
#: the node log long before the final OSError
_CONNECT_LOG_EVERY = 5
#: most bytes taken from an inbound stream per read (the StreamReader's
#: own buffer limit); a larger frame's remainder is read exactly
_READ_BYTES = 64 * 1024


def _backoff_schedule() -> Iterator[float]:
    """Capped exponential backoff delays: 0.05, 0.1, 0.2, ..., cap."""
    delay = _CONNECT_RETRY_BASE_S
    while True:
        yield delay
        delay = min(delay * 2.0, _CONNECT_RETRY_CAP_S)


class _Peer:
    """One persistent outbound connection to a remote node."""

    def __init__(self, transport: "TcpTransport", node: str,
                 host: str, port: int) -> None:
        self.node = node
        self.host = host
        self.port = port
        self._transport = transport
        #: frames enqueued since the writer task last took the batch
        self._batch: List[bytes] = []
        self._wake = asyncio.Event()
        self._task = transport.kernel.create_task(
            self._run(), name=f"peer:{node}")

    def enqueue(self, frame: bytes) -> None:
        self._batch.append(frame)
        self._wake.set()

    async def _connect(self) -> asyncio.StreamWriter:
        """Dial the peer with capped exponential backoff."""
        backoff = _backoff_schedule()
        last_error: Optional[OSError] = None
        for attempt in range(1, _CONNECT_ATTEMPTS + 1):
            try:
                _, writer = await asyncio.open_connection(
                    self.host, self.port)
                if attempt > 1:
                    log.info("peer %s (%s:%s) accepted on attempt %d",
                             self.node, self.host, self.port, attempt)
                return writer
            except OSError as exc:
                last_error = exc
                if attempt % _CONNECT_LOG_EVERY == 0:
                    log.warning(
                        "peer %s (%s:%s) still unreachable after %d "
                        "attempts: %s", self.node, self.host, self.port,
                        attempt, exc)
                await asyncio.sleep(next(backoff))
        raise OSError(
            f"peer node {self.node!r} at {self.host}:{self.port} never "
            f"accepted a connection ({_CONNECT_ATTEMPTS} attempts; last "
            f"error: {last_error})")

    async def _run(self) -> None:
        writer = None
        try:
            writer = await self._connect()
            while True:
                await self._wake.wait()
                self._wake.clear()
                batch, self._batch = self._batch, []
                writer.write(b"".join(batch))
                await writer.drain()
        except (OSError, ConnectionError) as exc:
            log.error("peer %s (%s:%s) failed: %s",
                      self.node, self.host, self.port, exc)
            self._transport.peer_errors += 1
        finally:
            # CancelledError (the normal close path) propagates through
            # here untouched — swallowing it would break shutdown (CONC005)
            if writer is not None:
                writer.close()

    async def close(self) -> None:
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            if not self._task.cancelled():
                raise  # cancelled *us*, not the writer task


class TcpTransport:
    """Length-prefixed-frame message fabric for one node's actors."""

    def __init__(self, kernel: RealtimeKernel, node_name: str,
                 host: str = "127.0.0.1") -> None:
        self.kernel = kernel
        self.node_name = node_name
        self.host = host
        self.port: Optional[int] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._local: Dict[str, Any] = {}
        #: frames for local actors that have not registered yet
        self._pending: Dict[str, List[Tuple[str, Any]]] = {}
        self._routes: Dict[str, str] = {}            # process -> node
        self._addresses: Dict[str, Tuple[str, int]] = {}  # node -> addr
        self._peers: Dict[str, _Peer] = {}
        self._sites: Dict[str, str] = {}
        #: inbound connection handlers and their streams; asyncio's
        #: Server.wait_closed does not end handlers, so stop() must
        #: (CONC006 by hand)
        self._conns: Dict[asyncio.Task, Tuple[asyncio.StreamReader,
                                              asyncio.StreamWriter]] = {}
        #: set by stop(): later sends to other nodes are dropped instead
        #: of dialling peers that nobody would ever close
        self._stopped = False
        #: optional repro.net.sanitizers.NetSanitizer (reentrancy check)
        self.sanitizer: Optional[Any] = None
        self.messages_sent = 0
        self.bytes_sent = 0
        self.frames_received = 0
        self.peer_errors = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self, port: int = 0) -> Tuple[str, int]:
        """Bind the listening socket; returns (host, port)."""
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def stop(self) -> None:
        self._stopped = True
        # swap state out before the first await so a concurrent stop()
        # sees empty maps instead of half-torn-down ones (CONC003)
        peers, self._peers = dict(self._peers), {}
        server, self._server = self._server, None
        conns, self._conns = dict(self._conns), {}
        for _, peer in sorted(peers.items()):
            await peer.close()
        if server is not None:
            server.close()
            await server.wait_closed()
        # End each handler the way a peer hang-up does: feed its reader
        # the EOF, so its read returns empty on the next loop turn and
        # the handler closes its stream.  A *cancelled*
        # handler ends "cancelled", which py3.11's StreamReaderProtocol
        # done-callback reports to the loop's exception handler as an
        # error, once per connection.
        for reader, writer in conns.values():
            writer.transport.pause_reading()   # no data after the EOF
            reader.feed_eof()
        if conns:
            await asyncio.gather(*conns, return_exceptions=True)

    # -- Transport protocol ------------------------------------------------

    def register(self, process: Any) -> None:
        name = process.name
        if name in self._local:
            raise ValueError(f"duplicate process name {name!r}")
        self._local[name] = process
        for src, message in self._pending.pop(name, []):
            self._deliver_soon(process, src, message)

    def place(self, process_name: str, site: str) -> None:
        """Record the site for parity with the sim Network (no latency
        model on a real network — the wire provides its own)."""
        self._sites[process_name] = site

    def send(self, src: str, dst: str, message: Any,
             size_bytes: int = 0) -> None:
        san = self.sanitizer
        if san is not None:
            san.enter_send()
        try:
            self.messages_sent += 1
            local = self._local.get(dst)
            if local is not None:
                self._deliver_soon(local, src, message)
                return
            node = self._routes.get(dst)
            if node is None:
                raise KeyError(f"unknown destination process {dst!r}")
            if self._stopped:
                return
            frame = codec.encode_frame(src, dst, message)
            self.bytes_sent += len(frame)
            self._peer_for(node).enqueue(frame)
        finally:
            if san is not None:
                san.exit_send()

    # -- routing -----------------------------------------------------------

    def set_routes(self, process_to_node: Dict[str, str],
                   node_addresses: Dict[str, Tuple[str, int]]) -> None:
        """Install the directory's view of the cluster (additively)."""
        for process, node in process_to_node.items():
            if node != self.node_name:
                self._routes[process] = node
        for node, (host, port) in node_addresses.items():
            self._addresses[node] = (host, int(port))

    def _peer_for(self, node: str) -> _Peer:
        peer = self._peers.get(node)
        if peer is None:
            try:
                host, port = self._addresses[node]
            except KeyError:
                raise KeyError(f"no address for node {node!r}") from None
            peer = _Peer(self, node, host, port)
            self._peers[node] = peer
        return peer

    # -- delivery ----------------------------------------------------------

    def _deliver_soon(self, process: Any, src: str, message: Any) -> None:
        # via the kernel's ready queue, not a direct call: delivery must
        # never re-enter the sender's stack (same discipline as the sim
        # Network), and the queue keeps per-link FIFO by construction
        san = self.sanitizer
        if san is None:
            self.kernel.call_soon(process.deliver, src, message)
        else:
            self.kernel.call_soon(san.deliver, process, src, message)

    def _on_frame(self, body: bytes) -> None:
        src, dst, message = codec.decode_frame_body(body)
        self.frames_received += 1
        process = self._local.get(dst)
        if process is not None:
            self._deliver_soon(process, src, message)
        else:
            # actor not constructed yet (cross-node boot race)
            self._pending.setdefault(dst, []).append((src, message))

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conns[task] = (reader, writer)
        header = codec.FRAME_HEADER
        data = b""   # between reads: at most an incomplete header
        try:
            while True:
                chunk = await reader.read(_READ_BYTES)
                if not chunk:
                    break  # peer closed (or stop() fed the EOF)
                data += chunk
                pos = 0
                while len(data) - pos >= header.size:
                    (length,) = header.unpack_from(data, pos)
                    if length > codec.MAX_FRAME_BYTES:
                        raise codec.CodecError(
                            f"inbound frame of {length} bytes exceeds ceiling")
                    pos += header.size
                    body = data[pos:pos + length]
                    pos += length
                    if pos > len(data):
                        # the frame outruns this read: take exactly the
                        # rest instead of re-buffering it read by read
                        body += await reader.readexactly(pos - len(data))
                    self._on_frame(body)
                data = data[pos:]
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass  # peer closed; normal at shutdown
        except codec.CodecError as exc:
            log.error("dropping connection on codec error: %s", exc)
            self.peer_errors += 1
        finally:
            if task is not None:
                self._conns.pop(task, None)
            writer.close()
