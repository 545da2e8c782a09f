"""Node-directory service: discovery and lifecycle for a real cluster.

The shape mirrors the tahoe-lafs introducer: one tiny long-lived server
every node knows the address of; nodes *register* their listen address
and hosted process names, *poll* the directory until the expected roster
is complete, then heartbeat *status* reports.  The driver reads
*snapshots* and flips the cluster-wide *phase* (``boot`` -> ``run`` ->
``stop``); nodes observe the phase piggybacked on every reply and shut
down gracefully when it reads ``stop``.

Protocol: newline-delimited JSON over TCP, one request and one reply per
connection (stateless, so a crashed client never wedges the server).
Requests are ``{"op": ...}`` objects:

======== ============================================= =================
op       request fields                                reply fields
======== ============================================= =================
register node, host, port, processes                   ok, phase
lookup   —                                             ok, phase, nodes,
                                                       complete
status   node, report                                  ok, phase
phase    phase                                         ok
snapshot —                                             ok, state
shutdown —                                             ok
======== ============================================= =================

Every state mutation is dumped to ``--state-file`` (JSON, sorted keys);
the net-smoke CI job uploads that file as an artifact on failure.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import socket
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

__all__ = ["DirectoryServer", "DirectoryClient", "request_async", "main"]


class DirectoryServer:
    """In-memory cluster roster with a JSON-line TCP front end."""

    def __init__(self, expected: List[str], host: str = "127.0.0.1",
                 state_path: Optional[Path] = None) -> None:
        self.expected = sorted(expected)
        self.host = host
        self.port: Optional[int] = None
        self.state_path = state_path
        self.phase = "boot"
        self.nodes: Dict[str, Dict[str, Any]] = {}
        self.reports: Dict[str, Dict[str, Any]] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown = asyncio.Event()

    # -- state -------------------------------------------------------------

    def _complete(self) -> bool:
        return set(self.expected) <= set(self.nodes)

    def state(self) -> Dict[str, Any]:
        return {
            "phase": self.phase,
            "expected": self.expected,
            "nodes": self.nodes,
            "reports": self.reports,
            "complete": self._complete(),
        }

    def _persist(self) -> None:
        if self.state_path is not None:
            self.state_path.write_text(
                json.dumps(self.state(), sort_keys=True, indent=2),
                encoding="utf-8")

    # -- request handling --------------------------------------------------

    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request.get("op")
        if op == "register":
            node = request["node"]
            self.nodes[node] = {
                "host": request["host"],
                "port": int(request["port"]),
                "processes": list(request.get("processes", [])),
            }
            if self.phase == "boot" and self._complete():
                self.phase = "run"
            self._persist()
            return {"ok": True, "phase": self.phase}
        if op == "lookup":
            return {"ok": True, "phase": self.phase, "nodes": self.nodes,
                    "complete": self._complete()}
        if op == "status":
            self.reports[request["node"]] = request.get("report", {})
            self._persist()
            return {"ok": True, "phase": self.phase}
        if op == "phase":
            phase = request["phase"]
            if phase not in ("boot", "run", "stop"):
                return {"ok": False, "error": f"unknown phase {phase!r}"}
            self.phase = phase
            self._persist()
            return {"ok": True, "phase": self.phase}
        if op == "snapshot":
            return {"ok": True, "state": self.state()}
        if op == "shutdown":
            self._shutdown.set()
            return {"ok": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        try:
            line = await reader.readline()
            if not line:
                return
            try:
                request = json.loads(line.decode("utf-8"))
                reply = self.handle(request)
            except (ValueError, KeyError, TypeError) as exc:
                reply = {"ok": False, "error": str(exc)}
            writer.write(json.dumps(reply, sort_keys=True).encode("utf-8")
                         + b"\n")
            await writer.drain()
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()

    # -- lifecycle ---------------------------------------------------------

    async def start(self, port: int = 0) -> int:
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._persist()
        return self.port

    async def serve_until_shutdown(self) -> None:
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        # swap before the await: serve_until_shutdown and an external
        # stop() can race, and both must see either the live server or
        # None — never a closed-but-still-recorded one (CONC003)
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        self._persist()


# -- clients -----------------------------------------------------------------

async def request_async(host: str, port: int,
                        request: Dict[str, Any]) -> Dict[str, Any]:
    """One async request/reply round trip (used inside node runtimes)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(json.dumps(request).encode("utf-8") + b"\n")
        await writer.drain()
        line = await reader.readline()
    finally:
        writer.close()
    if not line:
        raise ConnectionError("directory closed without replying")
    return json.loads(line.decode("utf-8"))


class DirectoryClient:
    """Blocking client (driver and tests; one connection per request)."""

    def __init__(self, host: str, port: int, timeout: float = 5.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    def request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        with socket.create_connection((self.host, self.port),
                                      timeout=self.timeout) as conn:
            conn.sendall(json.dumps(request).encode("utf-8") + b"\n")
            chunks = []
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
                if chunk.endswith(b"\n"):
                    break
        line = b"".join(chunks)
        if not line:
            raise ConnectionError("directory closed without replying")
        return json.loads(line.decode("utf-8"))

    def register(self, node: str, host: str, port: int,
                 processes: List[str]) -> Dict[str, Any]:
        return self.request({"op": "register", "node": node, "host": host,
                             "port": port, "processes": processes})

    def status(self, node: str, report: Dict[str, Any]) -> Dict[str, Any]:
        return self.request({"op": "status", "node": node, "report": report})

    def set_phase(self, phase: str) -> Dict[str, Any]:
        return self.request({"op": "phase", "phase": phase})

    def snapshot(self) -> Dict[str, Any]:
        return self.request({"op": "snapshot"})

    def shutdown(self) -> Dict[str, Any]:
        return self.request({"op": "shutdown"})


# -- standalone server process ----------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.directory",
        description="node-directory service for a real Saturn cluster")
    parser.add_argument("--port", type=int, default=0,
                        help="listen port (0 = ephemeral)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--expected", default="",
                        help="comma-separated node names the cluster needs")
    parser.add_argument("--state-file", metavar="PATH",
                        help="dump the roster as JSON on every change")
    parser.add_argument("--endpoint-file", metavar="PATH",
                        help="write 'host port' here once bound (the "
                             "driver's readiness handshake)")
    args = parser.parse_args(argv)

    expected = [n for n in args.expected.split(",") if n]
    state_path = Path(args.state_file) if args.state_file else None

    async def _run() -> None:
        server = DirectoryServer(expected, host=args.host,
                                 state_path=state_path)
        port = await server.start(args.port)
        if args.endpoint_file:
            Path(args.endpoint_file).write_text(
                f"{args.host} {port}\n", encoding="utf-8")
        await server.serve_until_shutdown()

    asyncio.run(_run())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
