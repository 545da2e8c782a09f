"""Upper layer: may use everything below it."""


def render(value: float) -> str:
    return f"{value:.3f}"
