"""Handles PingMsg; the reply is built with a keyword that is no field."""

from app.messages import PingMsg


class Server:
    _HANDLERS = {
        PingMsg: lambda self, sender, message: self.reply(
            sender, PingMsg(seq=message.seq + 1, source="srv")),
    }

    def reply(self, target: str, message) -> None:
        pass
