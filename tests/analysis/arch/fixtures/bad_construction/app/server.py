"""Handles PingMsg; the reply is built with a keyword that is no field."""

from app.messages import PingMsg


class Server:
    def receive(self, sender: str, message) -> None:
        if isinstance(message, PingMsg):
            self.reply(sender, PingMsg(seq=message.seq + 1, source="srv"))

    def reply(self, target: str, message) -> None:
        pass
