"""Handles PingMsg but misspells one of its fields."""

from app.messages import PingMsg


class Server:
    _HANDLERS = {
        PingMsg: lambda self, sender, message: self.note(
            message.seq, message.orgin),
    }

    def note(self, seq: int, origin: str) -> None:
        self.last = (seq, origin)
