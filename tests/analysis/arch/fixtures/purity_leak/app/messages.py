"""Wire vocabulary: one conforming message."""

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class UpdateMsg:
    key: str
