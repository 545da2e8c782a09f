"""Node runtime: one OS process hosting a datacenter or a serializer.

``python -m repro.net.node --dir <node-dir>`` reads ``node.json`` (written
by the driver, see :func:`repro.net.spec.write_cluster`), boots a
:class:`~repro.net.kernel.RealtimeKernel` + :class:`~repro.net.tcp.
TcpTransport` and builds what its roster entry names the way
``repro.harness.runner.Cluster`` does, for the system ``ClusterSpec.system``
names: the datacenter from the protocol table (with its auxiliary
processes and scripted :class:`~repro.datacenter.client.ClientProcess`
load), the serializers through ``SaturnService.install_tree`` restricted
to the ones hosted here — so a datacenter node's ``dc.saturn`` is the
real service, holding the tree but none of its serializers.

Lifecycle: build -> register -> roster-complete -> attach + start -> run
(status heartbeats to the directory) -> phase ``stop`` observed -> flush
``visibility.jsonl``, close sockets, exit 0.  A wall-clock deadline
(``deadline_s`` in node.json) bounds every phase; exceeding it exits 3
so a wedged cluster can never outlive the driver's timeout.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.serializer import Serializer
from repro.core.service import SaturnService
from repro.datacenter.base import Datacenter
from repro.datacenter.client import ClientProcess
from repro.datacenter.script import script_workload
from repro.net.codec import encode_value
from repro.net.directory import request_async
from repro.net.kernel import RealtimeKernel
from repro.net.sanitizers import NetSanitizer
from repro.net.spec import ClusterSpec
from repro.net.tcp import TcpTransport
from repro.protocols import protocol_named
from repro.sim.clock import PhysicalClock
from repro.sim.cpu import CostModel

__all__ = ["NodeRuntime", "HookJournal", "main"]

#: polling periods (seconds, real time)
_ROSTER_POLL_S = 0.05
_STATUS_PERIOD_S = 0.1


class HookJournal:
    """Schema-free journal of the recorder hooks the actors call.

    Stands in for both ``MetricsHub`` and ``ExecutionLog``: any
    ``record_*`` call becomes one canonical JSON line ``{"at", "hook",
    "args"}`` of ``visibility.jsonl``, the positional arguments in the
    wire codec's value encoding.  It keeps no state and interprets
    nothing; :mod:`repro.net.check` replays the lines into the real
    recorders."""

    def __init__(self, fh: Any, kernel: RealtimeKernel) -> None:
        # the node opens the file (before the event loop starts — a sync
        # open() on the async boot path would be a CONC001 stall) and
        # closes it
        self._fh = fh
        self._kernel = kernel

    def __getattr__(self, hook: str) -> Callable[..., None]:
        if not hook.startswith("record_"):
            raise AttributeError(hook)

        def write(*args: Any) -> None:
            self._fh.write(json.dumps(
                {"at": self._kernel.now, "hook": hook,
                 "args": encode_value(args)}, sort_keys=True) + "\n")
        return write


class NodeRuntime:
    """Boot, run, and gracefully stop one node of a real cluster."""

    def __init__(self, node_dir: Path) -> None:
        self.node_dir = Path(node_dir)
        config = json.loads(
            (self.node_dir / "node.json").read_text(encoding="utf-8"))
        self.config = config
        self.node_name: str = config["node"]
        self.role: str = config["role"]
        self.target: str = config["target"]
        self.processes: List[str] = list(config["processes"])
        self.directory: Tuple[str, int] = (config["directory"][0],
                                           int(config["directory"][1]))
        self.deadline_s: float = float(config.get("deadline_s", 120.0))
        sanitize = config.get("sanitize") or {}
        self.sanitize_enabled: bool = bool(sanitize.get("enabled", False))
        self.stall_ms: float = float(sanitize.get("stall_ms", 250.0))
        self.spec = ClusterSpec.load(
            (self.node_dir / config["spec"]).resolve())
        self.protocol = protocol_named(self.spec.system)
        self.replication = self.spec.replication()
        #: visibility sink, opened here (sync context) so the async boot
        #: path never touches blocking file I/O
        self._visibility_fh: Optional[Any] = None
        if self.role != "serializer":
            self._visibility_fh = open(
                self.node_dir / "visibility.jsonl", "a",
                encoding="utf-8", buffering=1)
        self.kernel: Optional[RealtimeKernel] = None
        self.transport: Optional[TcpTransport] = None
        self.clients: List[ClientProcess] = []
        self.datacenter: Optional[Datacenter] = None
        self.serializers: List[Serializer] = []

    # -- boot --------------------------------------------------------------

    async def _directory_request(self, request: Dict[str, Any]
                                 ) -> Dict[str, Any]:
        host, port = self.directory
        return await request_async(host, port, request)

    async def _register(self, host: str, port: int,
                        deadline: float) -> None:
        while True:
            try:
                await self._directory_request({
                    "op": "register", "node": self.node_name,
                    "host": host, "port": port,
                    "processes": self.processes})
                return
            except OSError:
                if self.kernel.now > deadline:
                    raise TimeoutError("directory never became reachable")
                await asyncio.sleep(_ROSTER_POLL_S)

    async def _await_roster(self, deadline: float) -> Dict[str, Any]:
        while True:
            try:
                reply = await self._directory_request({"op": "lookup"})
                if reply.get("complete"):
                    return reply["nodes"]
            except OSError:
                pass
            if self.kernel.now > deadline:
                raise TimeoutError("cluster roster never completed")
            await asyncio.sleep(_ROSTER_POLL_S)

    def _build_actors(self) -> None:
        """Build the datacenter and clients.  Nothing meets the transport
        before the routes do (:meth:`_start_actors`): until then an early
        frame waits there, not in an actor that cannot yet reply."""
        if self.role == "serializer":
            return
        kernel, protocol = self.kernel, self.protocol
        journal = HookJournal(self._visibility_fh, kernel)
        self.datacenter = protocol.datacenter(
            kernel, self.target, self.replication, CostModel(),
            PhysicalClock(kernel), metrics=journal, **self.spec.params)
        self.datacenter.execution_log = journal
        self.clients = [
            ClientProcess(kernel, client["id"], self.target,
                          script_workload(client["script"]),
                          merge=protocol.merge, metrics=journal,
                          execution_log=journal)
            for client in self.spec.clients_of(self.target)]
        # every process a node hosts is in its roster (Eunomia's sequencer)
        self.processes += [process.name for process
                           in protocol.aux_processes(self.datacenter)]

    def _start_actors(self) -> None:
        """Install this node's share of the tree, attach and start."""
        service: Optional[SaturnService] = None
        if self.protocol.has_tree:
            service = SaturnService(self.kernel, self.transport,
                                    self.replication, local_hop_latency=0.0)
            service.install_tree(self.spec.topology(), epoch=0,
                                 hosted=set(self.processes))
            self.serializers = list(service.serializers(0).values())
        dc = self.datacenter
        if dc is None:
            return
        if service is not None:
            dc.saturn = service
        for process in (dc, *self.protocol.aux_processes(dc), *self.clients):
            process.attach_network(self.transport)
            self.transport.place(process.name, self.target)
        dc.start()
        for index, client in enumerate(self.clients):
            # stagger starts (as the harness does) and leave a beat for
            # remote actors to finish booting
            self.kernel.schedule(20.0 + 5.0 * index, client.start)

    # -- status ------------------------------------------------------------

    def _report(self) -> Dict[str, Any]:
        dc = self.datacenter
        return {
            "role": self.role,
            "clients_done": all(not c.running for c in self.clients),
            "ops": sum(c.ops_completed for c in self.clients),
            "updates_applied": dc.updates_applied if dc is not None else 0,
            "forwarded": sum(s.labels_forwarded for s in self.serializers),
            "delivered": sum(s.labels_delivered for s in self.serializers),
        }

    # -- lifecycle ---------------------------------------------------------

    async def run(self) -> int:
        self.kernel = RealtimeKernel(asyncio.get_running_loop())
        started = self.kernel.now
        deadline = started + self.deadline_s * 1000.0
        self.transport = TcpTransport(self.kernel, self.node_name)
        sanitizer: Optional[NetSanitizer] = None
        if self.sanitize_enabled:
            sanitizer = NetSanitizer(stall_ms=self.stall_ms)
            self.kernel.sanitizer = sanitizer
            self.transport.sanitizer = sanitizer
            sanitizer.start(self.kernel)
            print(f"[{self.node_name}] sanitizers on "
                  f"(stall_ms={self.stall_ms:g})", flush=True)
        host, port = await self.transport.start()
        print(f"[{self.node_name}] listening on {host}:{port}", flush=True)
        try:
            self._build_actors()
            await self._register(host, port, deadline)
            nodes = await self._await_roster(deadline)
            routes = {process: node
                      for node, info in sorted(nodes.items())
                      for process in info["processes"]}
            addresses = {node: (info["host"], info["port"])
                         for node, info in nodes.items()}
            self.transport.set_routes(routes, addresses)
            self._start_actors()
            print(f"[{self.node_name}] roster complete, actors up",
                  flush=True)
            while True:
                await asyncio.sleep(_STATUS_PERIOD_S)
                if self.kernel.now > deadline:
                    print(f"[{self.node_name}] deadline exceeded",
                          flush=True)
                    return 3
                reply = await self._directory_request({
                    "op": "status", "node": self.node_name,
                    "report": self._report()})
                if reply.get("phase") == "stop":
                    break
            for client in self.clients:
                client.stop()
            # last report so the directory state artifact shows the
            # final counters
            await self._directory_request({
                "op": "status", "node": self.node_name,
                "report": self._report()})
            print(f"[{self.node_name}] stopping cleanly", flush=True)
            return 0
        finally:
            if self._visibility_fh is not None:
                self._visibility_fh.close()
            if sanitizer is not None:
                await sanitizer.stop()
            await self.transport.stop()
            if sanitizer is not None:
                # only after every owned task is down is a survivor a leak
                sanitizer.check_task_leaks()
                sanitizer.write(self.node_dir / "sanitizers.json")
                verdict = "clean" if sanitizer.ok else "violations"
                print(f"[{self.node_name}] sanitizers: {verdict} "
                      f"(stalls={len(sanitizer.stalls)}, "
                      f"reentrancy={len(sanitizer.reentrancy)}, "
                      f"leaks={len(sanitizer.task_leaks)})", flush=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.node",
        description="run one node of a real Saturn cluster")
    parser.add_argument("--dir", required=True, metavar="NODE_DIR",
                        help="node config directory (contains node.json)")
    args = parser.parse_args(argv)
    runtime = NodeRuntime(Path(args.dir))
    return asyncio.run(runtime.run())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
