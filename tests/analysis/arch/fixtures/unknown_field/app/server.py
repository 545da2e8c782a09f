"""Handles PingMsg but misspells one of its fields."""

from app.messages import PingMsg


class Server:
    def receive(self, sender: str, message) -> None:
        if isinstance(message, PingMsg):
            self.last = (message.seq, message.orgin)
