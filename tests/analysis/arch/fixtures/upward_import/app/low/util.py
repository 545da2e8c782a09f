"""Lower layer reaching upward: the dependency points the wrong way."""

from app.high.api import render


def describe(value: float) -> str:
    return "value=" + render(value)
