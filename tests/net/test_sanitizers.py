"""NetSanitizer: stall watchdog, reentrancy assertion, task-leak check,
and the kernel/transport wiring that feeds them."""

import asyncio
import json
import time

from repro.datacenter.messages import LabelCredit
from repro.net.kernel import RealtimeKernel
from repro.net.sanitizers import NetSanitizer
from repro.net.tcp import TcpTransport


class Recorder:
    def __init__(self, name):
        self.name = name
        self.got = []

    def deliver(self, src, message):
        self.got.append((src, message))


class ReentrantSender:
    """Pathological actor: sends from inside its deliver handler (legal),
    used to prove legal patterns stay clean."""

    def __init__(self, name, transport, target):
        self.name = name
        self._transport = transport
        self._target = target
        self.got = []

    def deliver(self, src, message):
        self.got.append((src, message))
        if isinstance(message, LabelCredit):
            self._transport.send(self.name, self._target, LabelCredit(0))


async def _drain_until(predicate, timeout=5.0):
    async def wait():
        while not predicate():
            await asyncio.sleep(0.005)
    await asyncio.wait_for(wait(), timeout)


# -- stall watchdog ----------------------------------------------------------

def test_slow_kernel_callback_is_recorded_as_a_stall():
    async def main():
        kernel = RealtimeKernel(asyncio.get_running_loop())
        san = NetSanitizer(stall_ms=50.0)
        kernel.sanitizer = san

        def block():
            time.sleep(0.12)  # deliberately stalls the loop

        kernel.schedule(0.0, block)
        await asyncio.sleep(0.3)
        assert not san.ok
        (stall,) = san.stalls
        assert stall["kind"] == "callback"
        assert stall["held_ms"] >= 50.0
        assert "block" in stall["callback"]
        assert san.callbacks_timed == 1
    asyncio.run(main())


def test_fast_callbacks_leave_the_sanitizer_clean():
    async def main():
        kernel = RealtimeKernel(asyncio.get_running_loop())
        san = NetSanitizer(stall_ms=50.0)
        kernel.sanitizer = san
        hits = []
        for _ in range(5):
            kernel.schedule(0.0, lambda: hits.append(1))
        await asyncio.sleep(0.1)
        assert len(hits) == 5 and san.ok
        assert san.callbacks_timed == 5
    asyncio.run(main())


def test_probe_task_detects_loop_lag_from_non_kernel_code():
    async def main():
        kernel = RealtimeKernel(asyncio.get_running_loop())
        san = NetSanitizer(stall_ms=50.0)
        san.start(kernel)
        await asyncio.sleep(0.1)   # give the probe a beat to be sleeping
        time.sleep(0.2)            # stall the loop outside any callback
        await asyncio.sleep(0.1)
        await san.stop()
        assert any(s["kind"] == "loop-lag" for s in san.stalls)
    asyncio.run(main())


def test_probe_stop_is_idempotent():
    async def main():
        kernel = RealtimeKernel(asyncio.get_running_loop())
        san = NetSanitizer()
        san.start(kernel)
        await san.stop()
        await san.stop()  # second stop is a no-op, not an error
    asyncio.run(main())


# -- reentrancy --------------------------------------------------------------

def test_direct_delivery_inside_send_is_recorded():
    san = NetSanitizer()
    sink = Recorder("actor:r")
    san.enter_send()
    san.deliver(sink, "actor:s", LabelCredit(9))  # delivering inside send()
    san.exit_send()
    assert sink.got == [("actor:s", LabelCredit(9))]  # behaviour unchanged
    (violation,) = san.reentrancy
    assert violation["process"] == "actor:r"
    assert violation["send_depth"] == 1


def test_nested_delivery_is_recorded():
    san = NetSanitizer()
    outer = Recorder("actor:outer")
    inner = Recorder("actor:inner")
    outer.deliver = lambda src, msg: san.deliver(inner, "actor:outer", msg)
    san.deliver(outer, "actor:s", LabelCredit(1))
    (violation,) = san.reentrancy
    assert violation["deliver_depth"] == 1


def test_transport_delivery_through_the_kernel_stays_clean():
    async def main():
        kernel = RealtimeKernel(asyncio.get_running_loop())
        san = NetSanitizer(stall_ms=500.0)
        kernel.sanitizer = san
        a = TcpTransport(kernel, "node-a")
        b = TcpTransport(kernel, "node-b")
        a.sanitizer = san
        b.sanitizer = san
        addresses = {"node-a": await a.start(), "node-b": await b.start()}
        routes = {"actor:a": "node-a", "actor:b": "node-b"}
        a.set_routes(routes, addresses)
        b.set_routes(routes, addresses)
        try:
            # an actor that sends from inside deliver: legal, because the
            # transport schedules deliveries instead of calling through
            echo = ReentrantSender("actor:b", b, "actor:a")
            sink = Recorder("actor:a")
            b.register(echo)
            a.register(sink)
            a.send("actor:a", "actor:b", LabelCredit(1, "a"))
            await _drain_until(lambda: len(sink.got) == 1)
            assert san.reentrancy == []
            assert san.deliveries_checked >= 2
        finally:
            await a.stop()
            await b.stop()
    asyncio.run(main())


# -- task leaks --------------------------------------------------------------

def test_straggler_task_is_reported_as_a_leak():
    async def main():
        san = NetSanitizer()

        async def forever():
            await asyncio.sleep(3600)

        task = asyncio.get_running_loop().create_task(
            forever(), name="straggler")
        await asyncio.sleep(0)
        san.check_task_leaks()
        assert "straggler" in san.task_leaks
        assert not san.ok
        task.cancel()
    asyncio.run(main())


def test_clean_shutdown_reports_no_leaks():
    async def main():
        kernel = RealtimeKernel(asyncio.get_running_loop())
        san = NetSanitizer()
        san.start(kernel)
        transport = TcpTransport(kernel, "node-a")
        await transport.start()
        await san.stop()
        await transport.stop()
        san.check_task_leaks()
        assert san.task_leaks == [], san.task_leaks
    asyncio.run(main())


# -- report ------------------------------------------------------------------

def test_report_roundtrips_through_json(tmp_path):
    san = NetSanitizer(stall_ms=123.0)
    san.enter_send()
    san.deliver(Recorder("actor:x"), "actor:y", LabelCredit(2))
    san.exit_send()
    path = tmp_path / "sanitizers.json"
    san.write(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["ok"] is False
    assert payload["stall_ms"] == 123.0
    assert len(payload["reentrancy"]) == 1
    assert payload["stalls"] == [] and payload["task_leaks"] == []
