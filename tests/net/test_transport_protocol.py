"""Transport/Kernel protocol conformance: both implementations satisfy
the same structural interface, so protocol actors cannot tell them apart.
"""

import asyncio

from repro.net.kernel import RealtimeKernel
from repro.net.tcp import TcpTransport
from repro.net.transport import Kernel, Transport
from repro.sim.engine import Simulator
from repro.sim.network import Network


def test_sim_network_satisfies_the_transport_protocol():
    sim = Simulator()
    network = Network(sim)
    assert isinstance(network, Transport)


def test_tcp_transport_satisfies_the_transport_protocol():
    async def main():
        kernel = RealtimeKernel(asyncio.get_running_loop())
        transport = TcpTransport(kernel, "node-x")
        assert isinstance(transport, Transport)
    asyncio.run(main())


def test_both_kernels_satisfy_the_kernel_protocol():
    assert isinstance(Simulator(), Kernel)

    async def main():
        assert isinstance(
            RealtimeKernel(asyncio.get_running_loop()), Kernel)
    asyncio.run(main())


def test_kernels_share_the_scheduling_surface():
    """The exact attribute set actors touch exists on both kernels."""
    sim = Simulator()
    for attr in ("now", "schedule", "schedule_at"):
        assert hasattr(sim, attr)

    async def main():
        kernel = RealtimeKernel(asyncio.get_running_loop())
        for attr in ("now", "schedule", "schedule_at"):
            assert hasattr(kernel, attr)
        # and timer handles expose the same cancel surface
        timer = kernel.schedule(1000.0, lambda: None)
        event = sim.schedule(1000.0, lambda: None)
        for handle in (timer, event):
            handle.cancel()
            assert handle.cancelled
    asyncio.run(main())
