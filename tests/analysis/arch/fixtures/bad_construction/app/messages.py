"""Wire vocabulary: one conforming message."""

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class PingMsg:
    seq: int
    origin: str
