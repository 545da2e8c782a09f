"""Wire vocabulary: two conforming messages."""

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class PingMsg:
    seq: int
    origin: str


@dataclass(frozen=True, slots=True)
class PongMsg:
    seq: int
