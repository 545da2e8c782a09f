"""The kernel itself may schedule freely."""


class Simulator:
    def __init__(self) -> None:
        self.pending = []

    def schedule(self, delay: float, callback) -> None:
        self.pending.append((delay, callback))
