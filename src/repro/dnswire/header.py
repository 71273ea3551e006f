"""DNS message header (RFC 1035 §4.1.1)."""

from __future__ import annotations

import dataclasses
import struct

from .errors import DecodeError
from .types import Opcode, Rcode

_HEADER = struct.Struct("!HHHHHH")

#: Size of the fixed DNS header in bytes.
HEADER_SIZE = _HEADER.size


@dataclasses.dataclass(slots=True)
class Header:
    """The fixed 12-byte DNS header.

    Field names follow RFC 1035: ``qr`` response flag, ``aa`` authoritative
    answer, ``tc`` truncation, ``rd`` recursion desired, ``ra`` recursion
    available.  The four counts are filled in by the message codec.
    """

    msg_id: int = 0
    qr: bool = False
    opcode: int = Opcode.QUERY
    aa: bool = False
    tc: bool = False
    rd: bool = False
    ra: bool = False
    rcode: int = Rcode.NOERROR
    qdcount: int = 0
    ancount: int = 0
    nscount: int = 0
    arcount: int = 0

    def flags_word(self) -> int:
        """The 16-bit flags field."""
        word = 0
        if self.qr:
            word |= 0x8000
        word |= (self.opcode & 0xF) << 11
        if self.aa:
            word |= 0x0400
        if self.tc:
            word |= 0x0200
        if self.rd:
            word |= 0x0100
        if self.ra:
            word |= 0x0080
        word |= self.rcode & 0xF
        return word

    def pack(self, qdcount: int, ancount: int, nscount: int, arcount: int) -> bytes:
        """The wire header with the given counts in place of the stored ones."""
        return _HEADER.pack(
            self.msg_id & 0xFFFF, self.flags_word(), qdcount, ancount, nscount, arcount
        )

    def encode(self) -> bytes:
        return self.pack(self.qdcount, self.ancount, self.nscount, self.arcount)

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> tuple["Header", int]:
        if len(data) - offset < HEADER_SIZE:
            raise DecodeError("message shorter than DNS header")
        msg_id, flags, qd, an, ns, ar = _HEADER.unpack_from(data, offset)
        header = cls(
            msg_id=msg_id,
            qr=bool(flags & 0x8000),
            opcode=(flags >> 11) & 0xF,
            aa=bool(flags & 0x0400),
            tc=bool(flags & 0x0200),
            rd=bool(flags & 0x0100),
            ra=bool(flags & 0x0080),
            rcode=flags & 0xF,
            qdcount=qd,
            ancount=an,
            nscount=ns,
            arcount=ar,
        )
        return header, offset + HEADER_SIZE
