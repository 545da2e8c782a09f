"""TcpTransport: framing, FIFO, boot-race buffering, local fast path.

Two transports share one event loop (two "nodes" in one test process) —
the frames still travel through real localhost sockets.
"""

import asyncio
import itertools
import logging

import pytest

from repro.core.label import Label, LabelType
from repro.datacenter.messages import LabelBatch, LabelCredit
from repro.net import codec, tcp
from repro.net.kernel import RealtimeKernel
from repro.net.tcp import TcpTransport, _backoff_schedule


class Recorder:
    """Minimal actor: records deliveries in order."""

    def __init__(self, name):
        self.name = name
        self.got = []

    def deliver(self, src, message):
        self.got.append((src, message))


async def _pair():
    kernel = RealtimeKernel(asyncio.get_running_loop())
    a = TcpTransport(kernel, "node-a")
    b = TcpTransport(kernel, "node-b")
    addresses = {"node-a": await a.start(), "node-b": await b.start()}
    routes = {"actor:a": "node-a", "actor:b": "node-b"}
    a.set_routes(routes, addresses)
    b.set_routes(routes, addresses)
    return kernel, a, b


async def _drain_until(predicate, timeout=5.0):
    async def wait():
        while not predicate():
            await asyncio.sleep(0.005)
    await asyncio.wait_for(wait(), timeout)


def test_cross_node_fifo_order():
    async def main():
        _, a, b = await _pair()
        try:
            sink = Recorder("actor:b")
            b.register(sink)
            for seq in range(50):
                a.send("actor:a", "actor:b", LabelCredit(seq, "a"))
            await _drain_until(lambda: len(sink.got) == 50)
            assert [m.labels for _, m in sink.got] == list(range(50))
            assert all(src == "actor:a" for src, _ in sink.got)
            assert a.messages_sent == 50 and a.bytes_sent > 0
            assert b.frames_received == 50
        finally:
            await a.stop()
            await b.stop()
    asyncio.run(main())


def test_frames_of_one_loop_turn_leave_in_fewer_writes_in_order(monkeypatch):
    class StubWriter:
        def __init__(self):
            self.writes = []

        def write(self, data):
            self.writes.append(data)

        async def drain(self):
            pass

        def close(self):
            pass

    stub = StubWriter()

    async def connect(peer):
        return stub

    monkeypatch.setattr(tcp._Peer, "_connect", connect)

    async def main():
        kernel = RealtimeKernel(asyncio.get_running_loop())
        a = TcpTransport(kernel, "node-a")
        a.set_routes({"actor:b": "node-b"}, {"node-b": ("127.0.0.1", 1)})
        try:
            for burst in range(3):   # three loop turns of 40 sends each
                for seq in range(40):
                    a.send("actor:a", "actor:b",
                           LabelCredit(burst * 40 + seq, "a"))
                await _drain_until(
                    lambda: sum(map(len, stub.writes)) == a.bytes_sent)
        finally:
            await a.stop()

    asyncio.run(main())
    assert len(stub.writes) == 3          # one write per turn, not per frame
    stream, seqs = b"".join(stub.writes), []
    while stream:
        (length,) = codec.FRAME_HEADER.unpack_from(stream)
        seqs.append(codec.decode_frame_body(stream[4:4 + length])[2].labels)
        stream = stream[4 + length:]
    assert seqs == list(range(120))


def test_a_frame_larger_than_one_read_round_trips():
    labels = tuple(Label(LabelType.UPDATE, f"I:g{i % 7}", float(i),
                         f"g0:key{i:06d}", "I") for i in range(7000))

    async def main():
        _, a, b = await _pair()
        try:
            sink = Recorder("actor:b")
            b.register(sink)
            a.send("actor:a", "actor:b", LabelCredit(1, "a"))
            a.send("actor:a", "actor:b", LabelBatch(labels, epoch=3))
            a.send("actor:a", "actor:b", LabelCredit(2, "a"))
            assert a.bytes_sent > 300 * 1024 > tcp._READ_BYTES
            await _drain_until(lambda: len(sink.got) == 3)
            (_, first), (_, batch), (_, last) = sink.got
            assert (first.labels, last.labels) == (1, 2)
            assert batch.epoch == 3 and len(batch.labels) == len(labels)
            assert codec.encode_message(batch) == codec.encode_message(
                LabelBatch(labels, epoch=3))
            assert b.frames_received == 3 and b.peer_errors == 0
        finally:
            await a.stop()
            await b.stop()
    asyncio.run(main())


def test_inbound_frames_buffer_until_the_actor_registers():
    async def main():
        _, a, b = await _pair()
        try:
            for seq in range(3):
                a.send("actor:a", "actor:b", LabelCredit(seq, "a"))
            await _drain_until(lambda: b.frames_received == 3)
            late = Recorder("actor:b")
            b.register(late)  # boot race resolved: pending frames flush
            await _drain_until(lambda: len(late.got) == 3)
            assert [m.labels for _, m in late.got] == [0, 1, 2]
        finally:
            await a.stop()
            await b.stop()
    asyncio.run(main())


def test_local_delivery_is_asynchronous_never_reentrant():
    async def main():
        _, a, b = await _pair()
        try:
            local = Recorder("actor:a")
            a.register(local)
            a.send("actor:x", "actor:a", LabelCredit(1))
            # same discipline as the sim Network: nothing delivered
            # inside the send() stack
            assert local.got == []
            await _drain_until(lambda: len(local.got) == 1)
            assert local.got == [("actor:x", LabelCredit(1))]
        finally:
            await a.stop()
            await b.stop()
    asyncio.run(main())


def test_local_sends_from_inside_a_delivery_are_fifo_and_not_reentrant():
    from repro.net.sanitizers import NetSanitizer

    class Relay(Recorder):
        """Forwards every message to a local neighbour, twice, from inside
        its deliver — the pattern a datacenter's frontend -> sink uses."""

        def __init__(self, name, transport, target):
            super().__init__(name)
            self.transport, self.target = transport, target

        def deliver(self, src, message):
            super().deliver(src, message)
            for copy in range(2):
                self.transport.send(self.name, self.target,
                                    LabelCredit(message.labels * 2 + copy))

    async def main():
        kernel = RealtimeKernel(asyncio.get_running_loop())
        kernel.sanitizer = san = NetSanitizer(stall_ms=500.0)
        a = TcpTransport(kernel, "node-a")
        a.sanitizer = san
        await a.start()
        try:
            sink = Recorder("actor:sink")
            a.register(sink)
            a.register(Relay("actor:relay", a, "actor:sink"))
            for seq in range(50):
                a.send("actor:x", "actor:relay", LabelCredit(seq, "x"))
            await _drain_until(lambda: len(sink.got) == 100)
            assert [m.labels for _, m in sink.got] == list(range(100))
            assert san.reentrancy == [] and san.deliveries_checked == 150
            # every delivery was a ready-queue entry the watchdog timed
            assert san.callbacks_timed == kernel.events_executed == 150
        finally:
            await a.stop()
    asyncio.run(main())


def test_duplicate_register_and_unknown_destination():
    async def main():
        _, a, b = await _pair()
        try:
            a.register(Recorder("actor:a"))
            with pytest.raises(ValueError):
                a.register(Recorder("actor:a"))
            with pytest.raises(KeyError):
                a.send("actor:a", "actor:nowhere", LabelCredit(1))
        finally:
            await a.stop()
            await b.stop()
    asyncio.run(main())


def test_backoff_schedule_doubles_up_to_the_cap():
    delays = list(itertools.islice(_backoff_schedule(), 8))
    assert delays == [0.05, 0.1, 0.2, 0.4, 0.5, 0.5, 0.5, 0.5]


def test_unreachable_peer_logs_and_counts_an_error(monkeypatch, caplog):
    # shrink the schedule so the retry loop exhausts in milliseconds
    monkeypatch.setattr(tcp, "_CONNECT_ATTEMPTS", 6)
    monkeypatch.setattr(tcp, "_CONNECT_RETRY_BASE_S", 0.001)
    monkeypatch.setattr(tcp, "_CONNECT_RETRY_CAP_S", 0.002)

    async def main():
        kernel = RealtimeKernel(asyncio.get_running_loop())
        a = TcpTransport(kernel, "node-a")
        await a.start()
        # an address nobody listens on: bind-then-close to claim a port
        server = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
        dead_port = server.sockets[0].getsockname()[1]
        server.close()
        await server.wait_closed()
        a.set_routes({"actor:gone": "node-gone"},
                     {"node-a": (a.host, a.port),
                      "node-gone": ("127.0.0.1", dead_port)})
        try:
            with caplog.at_level(logging.WARNING, logger="repro.net.tcp"):
                a.send("actor:a", "actor:gone", LabelCredit(1))
                await _drain_until(lambda: a.peer_errors == 1)
            assert any("still unreachable" in r.getMessage()
                       for r in caplog.records)
            assert any("never accepted a connection" in r.getMessage()
                       for r in caplog.records)
        finally:
            await a.stop()
    asyncio.run(main())


def test_place_records_site_for_parity_with_sim_network():
    async def main():
        _, a, b = await _pair()
        try:
            a.place("actor:a", "I")
            assert a._sites["actor:a"] == "I"
        finally:
            await a.stop()
            await b.stop()
    asyncio.run(main())
