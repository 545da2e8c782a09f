"""TcpTransport.stop() must leave nothing for the loop to complain about.

On Python 3.11 a *cancelled* ``start_server`` connection handler makes
``StreamReaderProtocol``'s done-callback raise ``CancelledError``, which the
loop reports through its exception handler — once per inbound connection.
``stop()`` therefore ends its handlers by closing their streams.
"""

import asyncio

from repro.datacenter.messages import LabelCredit
from repro.net.kernel import RealtimeKernel
from repro.net.tcp import TcpTransport


class _Sink:
    def __init__(self, name):
        self.name = name
        self.got = []

    def deliver(self, src, message):
        self.got.append(message)


def test_stop_reports_nothing_to_the_loop_exception_handler():
    reported = []

    async def main():
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(
            lambda loop, context: reported.append(context))
        kernel = RealtimeKernel(loop)
        a = TcpTransport(kernel, "node-a")
        b = TcpTransport(kernel, "node-b")
        addresses = {"node-a": await a.start(), "node-b": await b.start()}
        routes = {"actor:a": "node-a", "actor:b": "node-b"}
        a.set_routes(routes, addresses)
        b.set_routes(routes, addresses)
        sinks = {"a": _Sink("actor:a"), "b": _Sink("actor:b")}
        a.register(sinks["a"])
        b.register(sinks["b"])
        # traffic both ways: each node ends up with one inbound connection
        for seq in range(20):
            a.send("actor:a", "actor:b", LabelCredit(seq, "a"))
            b.send("actor:b", "actor:a", LabelCredit(seq, "b"))
        while len(sinks["a"].got) < 20 or len(sinks["b"].got) < 20:
            await asyncio.sleep(0.005)
        inbound = list(a._conns) + list(b._conns)
        assert len(inbound) == 2
        await a.stop()
        await b.stop()
        # the done-callbacks run one loop turn after the handlers finish
        await asyncio.sleep(0.05)
        assert all(task.done() and not task.cancelled() for task in inbound)
        assert not a._conns and not b._conns

    asyncio.run(asyncio.wait_for(main(), timeout=10.0))
    assert reported == []
