"""DNS-over-TCP stream framing (RFC 1035 §4.2.2): 2-byte length prefix."""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

from ..dnswire import DecodeError, Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..netsim import TcpConnection


def frame(message: Message) -> bytes:
    """Serialise a message with its TCP length prefix."""
    wire = message.encode()  # a frozen message packs only its id and flags
    if len(wire) > 0xFFFF:
        raise ValueError("DNS message too large for TCP framing")
    return struct.pack("!H", len(wire)) + wire


class StreamFramer:
    """Incremental de-framer: feed stream bytes, collect whole messages."""

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[Message]:
        """Absorb ``data``; return every complete message now available."""
        buffer = self._buffer
        buffer += data
        messages: list[Message] = []
        available = len(buffer)
        while available >= 2:
            end = 2 + (buffer[0] << 8 | buffer[1])
            if available < end:
                break
            wire = bytes(buffer[2:end])
            del buffer[:end]
            available -= end
            messages.append(Message.decode(wire))
        return messages

    def feed_or_abort(self, conn: "TcpConnection", data: bytes) -> list[Message] | None:
        """:meth:`feed` for a reader on ``conn``: a malformed stream aborts
        the connection (its ``on_close`` sees an error) and returns ``None``."""
        try:
            return self.feed(data)
        except DecodeError:
            conn.abort()
            return None

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


__all__ = ["DecodeError", "StreamFramer", "frame"]
