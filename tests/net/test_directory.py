"""Directory service: roster state machine, JSON-line protocol, clients."""

import asyncio
import json

from repro.net.directory import (DirectoryClient, DirectoryServer,
                                 request_async)


def test_register_flips_phase_when_roster_completes():
    server = DirectoryServer(["n1", "n2"])
    assert server.phase == "boot"
    server.handle({"op": "register", "node": "n1", "host": "h", "port": 1,
                   "processes": ["p1"]})
    assert server.phase == "boot"
    reply = server.handle({"op": "register", "node": "n2", "host": "h",
                           "port": 2, "processes": ["p2"]})
    assert server.phase == "run"
    assert reply == {"ok": True, "phase": "run"}


def test_lookup_status_phase_and_snapshot():
    server = DirectoryServer(["n1"])
    lookup = server.handle({"op": "lookup"})
    assert lookup["complete"] is False and lookup["nodes"] == {}
    server.handle({"op": "register", "node": "n1", "host": "h", "port": 9,
                   "processes": ["p"]})
    lookup = server.handle({"op": "lookup"})
    assert lookup["complete"] is True
    assert lookup["nodes"]["n1"] == {"host": "h", "port": 9,
                                    "processes": ["p"]}
    server.handle({"op": "status", "node": "n1", "report": {"ops": 3}})
    snapshot = server.handle({"op": "snapshot"})
    assert snapshot["state"]["reports"]["n1"] == {"ops": 3}
    assert server.handle({"op": "phase", "phase": "stop"})["ok"] is True
    assert server.phase == "stop"
    assert server.handle({"op": "phase", "phase": "bogus"})["ok"] is False
    assert server.handle({"op": "wat"})["ok"] is False


def test_state_persists_to_json_file(tmp_path):
    state_path = tmp_path / "directory.json"
    server = DirectoryServer(["n1"], state_path=state_path)
    server.handle({"op": "register", "node": "n1", "host": "h", "port": 5,
                   "processes": []})
    state = json.loads(state_path.read_text(encoding="utf-8"))
    assert state["phase"] == "run"
    assert state["complete"] is True
    assert state["nodes"]["n1"]["port"] == 5


def test_async_and_blocking_clients_over_a_live_server(tmp_path):
    async def main():
        server = DirectoryServer(["n1"],
                                 state_path=tmp_path / "state.json")
        port = await server.start()
        try:
            reply = await request_async(
                "127.0.0.1", port,
                {"op": "register", "node": "n1", "host": "127.0.0.1",
                 "port": 1234, "processes": ["p1"]})
            assert reply["phase"] == "run"

            # the blocking driver-side client, run off-loop
            client = DirectoryClient("127.0.0.1", port)
            loop = asyncio.get_running_loop()
            lookup = await loop.run_in_executor(
                None, lambda: client.request({"op": "lookup"}))
            assert lookup["complete"] is True
            status = await loop.run_in_executor(
                None, lambda: client.status("n1", {"ops": 7}))
            assert status["ok"] is True
            snapshot = await loop.run_in_executor(None, client.snapshot)
            assert snapshot["state"]["reports"]["n1"] == {"ops": 7}
            phase = await loop.run_in_executor(
                None, lambda: client.set_phase("stop"))
            assert phase["phase"] == "stop"
        finally:
            await server.stop()
    asyncio.run(main())


def test_shutdown_request_releases_serve_until_shutdown():
    async def main():
        server = DirectoryServer([])
        port = await server.start()
        serve = asyncio.create_task(server.serve_until_shutdown())
        reply = await request_async("127.0.0.1", port, {"op": "shutdown"})
        assert reply["ok"] is True
        await asyncio.wait_for(serve, timeout=5.0)
    asyncio.run(main())
