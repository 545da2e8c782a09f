"""Protocol entry point whose handler is pure... on the surface."""
from app.messages import UpdateMsg
from app.store import apply_update


class Server:
    def _on_update(self, sender: str, message: UpdateMsg) -> None:
        apply_update(message)

    _HANDLERS = {UpdateMsg: _on_update}
