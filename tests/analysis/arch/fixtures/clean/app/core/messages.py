"""Wire vocabulary: frozen plain data only."""

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True, slots=True)
class UpdateMsg:
    key: str
    ts: float
    deps: Tuple[Tuple[str, float], ...] = ()


@dataclass(frozen=True, slots=True)
class AckMsg:
    key: str
    ts: Optional[float] = None
