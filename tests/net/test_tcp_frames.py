"""Frame-decoding edge cases in ``TcpTransport._serve_connection``: a raw
socket writes crafted byte sequences at the listener and the transport
must either deliver or drop the connection — never crash, never deliver
garbage, never double-count."""

import asyncio
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.label import LabelType
from repro.datacenter.messages import BulkHeartbeat, LabelCredit
from repro.net import codec
from repro.net.kernel import RealtimeKernel
from repro.net.tcp import TcpTransport


class Recorder:
    def __init__(self, name):
        self.name = name
        self.got = []

    def deliver(self, src, message):
        self.got.append((src, message))


async def _transport():
    kernel = RealtimeKernel(asyncio.get_running_loop())
    transport = TcpTransport(kernel, "node-t")
    await transport.start()
    sink = Recorder("actor:t")
    transport.register(sink)
    return transport, sink


async def _write_raw(transport, payload, *, close=True):
    """Open a raw client connection and write *payload* byte-for-byte."""
    _, writer = await asyncio.open_connection(
        transport.host, transport.port)
    writer.write(payload)
    await writer.drain()
    if close:
        writer.close()
        await writer.wait_closed()
        return None
    return writer


async def _drain_until(predicate, timeout=5.0):
    async def wait():
        while not predicate():
            await asyncio.sleep(0.005)
    await asyncio.wait_for(wait(), timeout)


async def _settle():
    for _ in range(10):
        await asyncio.sleep(0.005)


def _frame(seq=1):
    return codec.encode_frame("actor:s", "actor:t",
                              LabelCredit(seq, "x"))


# -- hand-written edge cases -------------------------------------------------

def test_truncated_header_then_disconnect_is_harmless():
    async def main():
        transport, sink = await _transport()
        try:
            await _write_raw(transport, b"\x00\x00")  # 2 of 4 header bytes
            await _settle()
            assert sink.got == []
            assert transport.frames_received == 0
            assert transport.peer_errors == 0  # disconnect, not a protocol error
        finally:
            await transport.stop()
    asyncio.run(main())


def test_truncated_body_then_disconnect_is_harmless():
    async def main():
        transport, sink = await _transport()
        try:
            frame = _frame()
            await _write_raw(transport, frame[:-3])  # header + partial body
            await _settle()
            assert sink.got == []
            assert transport.frames_received == 0
            assert transport.peer_errors == 0
        finally:
            await transport.stop()
    asyncio.run(main())


def test_over_cap_length_drops_the_connection_as_a_codec_error():
    async def main():
        transport, sink = await _transport()
        try:
            huge = codec.FRAME_HEADER.pack(codec.MAX_FRAME_BYTES + 1)
            writer = await _write_raw(transport, huge, close=False)
            await _drain_until(lambda: transport.peer_errors == 1)
            assert sink.got == []
            # the transport, not the client, must have closed the socket
            reader, _ = await asyncio.open_connection(
                transport.host, transport.port)
            writer.close()
            assert transport.frames_received == 0
        finally:
            await transport.stop()
    asyncio.run(main())


def test_garbage_body_of_the_advertised_length_is_a_codec_error():
    async def main():
        transport, sink = await _transport()
        try:
            body = b"\xff" * 32  # no such tag
            await _write_raw(transport,
                             codec.FRAME_HEADER.pack(len(body)) + body)
            await _drain_until(lambda: transport.peer_errors == 1)
            assert sink.got == []
        finally:
            await transport.stop()
    asyncio.run(main())


def test_malformed_body_costs_one_connection_never_the_listener():
    """Bodies the codec must refuse — a field short, an unknown class id,
    an unknown enum member, a NaN — each drop their own connection with
    one ``peer_errors`` tick; the next connection is served as usual."""
    good = _frame(seq=5)[codec.FRAME_HEADER.size:]
    nan = codec.encode_frame(
        "actor:s", "actor:t", BulkHeartbeat("F", 1.0)
    )[codec.FRAME_HEADER.size:-8] + struct.pack(">d", float("nan"))
    label = codec.encode_message(LabelType.UPDATE)
    addresses = good[:good.index(codec.encode_message(LabelCredit(5, "x")))]
    bodies = [
        good[:-1],                                       # a field short
        addresses + bytes((label[0], 0xEE)),             # unknown class id
        addresses + label[:-1] + b"\x7f",                # unknown member
        nan,
    ]

    async def main():
        transport, sink = await _transport()
        try:
            for errors, body in enumerate(bodies, start=1):
                writer = await _write_raw(
                    transport, codec.FRAME_HEADER.pack(len(body)) + body,
                    close=False)
                await _drain_until(lambda: transport.peer_errors == errors)
                # the transport hung up on the offender ...
                await _drain_until(lambda: not transport._conns)
                writer.close()
                # ... and still serves a fresh connection
                await _write_raw(transport, _frame(seq=errors))
                await _drain_until(lambda: len(sink.got) == errors)
            assert [m.labels for _, m in sink.got] == [1, 2, 3, 4]
            assert transport.frames_received == 4
        finally:
            await transport.stop()
    asyncio.run(main())


def test_valid_frame_then_mid_frame_disconnect_keeps_the_first():
    async def main():
        transport, sink = await _transport()
        try:
            payload = _frame(seq=7) + _frame(seq=8)[:5]
            await _write_raw(transport, payload)
            await _drain_until(lambda: len(sink.got) == 1)
            src, message = sink.got[0]
            assert src == "actor:s" and message.labels == 7
            assert transport.frames_received == 1
            assert transport.peer_errors == 0
        finally:
            await transport.stop()
    asyncio.run(main())


def test_frames_split_across_arbitrary_writes_reassemble():
    async def main():
        transport, sink = await _transport()
        try:
            stream = b"".join(_frame(seq=i) for i in range(3))
            writer = await _write_raw(transport, stream[:1], close=False)
            for offset in range(1, len(stream), 7):
                writer.write(stream[offset:offset + 7])
                await writer.drain()
            await _drain_until(lambda: len(sink.got) == 3)
            assert [m.labels for _, m in sink.got] == [0, 1, 2]
            writer.close()
        finally:
            await transport.stop()
    asyncio.run(main())


# -- property: chunking never changes what is delivered ----------------------

@settings(max_examples=20, deadline=None)
@given(
    seqs=st.lists(st.integers(min_value=0, max_value=999),
                  min_size=1, max_size=5),
    cut=st.integers(min_value=1, max_value=64),
    truncate=st.integers(min_value=0, max_value=8),
)
def test_chunked_delivery_is_chunking_invariant(seqs, cut, truncate):
    async def main():
        transport, sink = await _transport()
        try:
            stream = b"".join(_frame(seq=s) for s in seqs)
            if truncate:  # optionally shear off a partial trailing frame
                stream += _frame(seq=0)[:truncate]
            writer = await _write_raw(transport, stream[:cut], close=False)
            for offset in range(cut, len(stream), cut):
                writer.write(stream[offset:offset + cut])
                await writer.drain()
            await _drain_until(lambda: len(sink.got) >= len(seqs))
            writer.close()
            await _settle()
            # exactly the complete frames, in order; the shear is invisible
            assert [m.labels for _, m in sink.got] == seqs
            assert transport.frames_received == len(seqs)
            assert transport.peer_errors == 0
        finally:
            await transport.stop()
    asyncio.run(main())
