"""Protocol code binding itself to the kernel's absolute clock."""


class Server:
    def __init__(self, sim) -> None:
        self.sim = sim

    def start(self) -> None:
        self.sim.schedule(5.0, self.tick)

    def tick(self) -> None:
        self.sim.call_at(9.0, self.tick)  # the handle-free entry is no seam
