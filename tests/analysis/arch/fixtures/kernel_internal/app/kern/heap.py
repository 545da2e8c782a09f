"""Kernel-private event heap: not a seam protocol code may touch."""


class EventHeap:
    def __init__(self) -> None:
        self.entries = []
