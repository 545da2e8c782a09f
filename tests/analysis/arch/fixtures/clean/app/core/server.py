"""Protocol entry point: pure, layered, and wire-conformant."""

from app.core.messages import AckMsg, UpdateMsg
from app.kern.clock import SimClock


class Server:
    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self.store = {}

    def receive(self, sender: str, message) -> None:
        self._HANDLERS[type(message)](self, sender, message)

    def _on_update(self, sender: str, message: UpdateMsg) -> None:
        self.store[message.key] = message.ts
        self.reply(sender, AckMsg(key=message.key, ts=self.clock.timestamp()))

    def _on_ack(self, sender: str, message: AckMsg) -> None:
        self.store.pop(message.key, None)

    _HANDLERS = {UpdateMsg: _on_update, AckMsg: _on_ack}

    def reply(self, target: str, message) -> None:
        pass
