"""Sanctioned kernel seam: the simulated clock."""


class SimClock:
    def __init__(self) -> None:
        self.now = 0.0
