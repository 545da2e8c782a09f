"""Protocol code: the clock is a seam, the heap is kernel-private."""

from app.kern.clock import SimClock
from app.kern.heap import EventHeap


class Server:
    def __init__(self, clock: SimClock, heap: EventHeap) -> None:
        self.clock = clock
        self.heap = heap
