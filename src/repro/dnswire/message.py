"""Full DNS messages: questions, resource records, and the message codec.

The codec implements RFC 1035 §4: header, question section, and three
resource-record sections, with name compression on output and strict
bounds-checked parsing on input.  ``Message.encode(max_size=...)`` performs
the truncation dance the TCP-based guard scheme relies on: if the encoded
message exceeds the UDP limit, answer records are dropped and the TC bit is
set.
"""

from __future__ import annotations

import dataclasses
import struct

from .errors import DecodeError
from .header import HEADER_SIZE, Header
from .name import Name, Offsets
from .rdata import Rdata
from .types import MAX_UDP_PAYLOAD, Opcode, Rcode, RRClass, RRType


@dataclasses.dataclass(frozen=True, slots=True)
class Question:
    """One entry of the question section."""

    qname: Name
    qtype: int = RRType.A
    qclass: int = RRClass.IN

    def encode(self, buffer: bytearray, offsets: Offsets | None) -> None:
        self.qname.encode(buffer, offsets)
        buffer += struct.pack("!HH", self.qtype, self.qclass)

    @classmethod
    def decode(cls, data: bytes, offset: int) -> tuple["Question", int]:
        qname, offset = Name.decode(data, offset)
        if offset + 4 > len(data):
            raise DecodeError("question section truncated")
        qtype, qclass = struct.unpack_from("!HH", data, offset)
        return cls(qname, qtype, qclass), offset + 4


@dataclasses.dataclass(frozen=True, slots=True)
class ResourceRecord:
    """One resource record: owner name, type, class, TTL and typed RDATA."""

    name: Name
    rtype: int
    rclass: int
    ttl: int
    rdata: Rdata

    def encode(self, buffer: bytearray, offsets: Offsets | None) -> None:
        self.name.encode(buffer, offsets)
        buffer += struct.pack("!HHI", self.rtype, self.rclass, self.ttl & 0xFFFFFFFF)
        length_at = len(buffer)
        buffer += b"\x00\x00"
        self.rdata.encode(buffer, offsets)
        rdlength = len(buffer) - length_at - 2
        struct.pack_into("!H", buffer, length_at, rdlength)

    @classmethod
    def decode(cls, data: bytes, offset: int) -> tuple["ResourceRecord", int]:
        name, offset = Name.decode(data, offset)
        if offset + 10 > len(data):
            raise DecodeError("resource record header truncated")
        rtype, rclass, ttl, rdlength = struct.unpack_from("!HHIH", data, offset)
        offset += 10
        if offset + rdlength > len(data):
            raise DecodeError("RDATA runs past end of message")
        rdata = Rdata.class_for(rtype).decode(data, offset, rdlength)
        return cls(name, rtype, rclass, ttl, rdata), offset + rdlength


@dataclasses.dataclass(slots=True)
class Message:
    """A complete DNS message."""

    header: Header = dataclasses.field(default_factory=Header)
    questions: list[Question] = dataclasses.field(default_factory=list)
    answers: list[ResourceRecord] = dataclasses.field(default_factory=list)
    authorities: list[ResourceRecord] = dataclasses.field(default_factory=list)
    additionals: list[ResourceRecord] = dataclasses.field(default_factory=list)
    #: memoized compressed wire form, set by :meth:`freeze` or inherited
    #: through a wire-preserving derivation (:meth:`with_header`,
    #: :meth:`freeze_as`) — always the bytes ``_encode_once(True)`` would
    #: produce, so the message must not be mutated while it is set (never
    #: part of equality/repr)
    _wire: bytes | None = dataclasses.field(
        default=None, repr=False, compare=False
    )

    # -- inspection --------------------------------------------------------

    @property
    def question(self) -> Question:
        """The sole question; raises if the message has none."""
        if not self.questions:
            raise DecodeError("message has no question section")
        return self.questions[0]

    def is_query(self) -> bool:
        return not self.header.qr

    def is_response(self) -> bool:
        return self.header.qr

    def records(self, section: str, rtype: int | None = None) -> list[ResourceRecord]:
        """Records of ``section`` (answer/authority/additional), optionally by type."""
        table = {
            "answer": self.answers,
            "authority": self.authorities,
            "additional": self.additionals,
        }
        rrs = table[section]
        if rtype is None:
            return list(rrs)
        return [rr for rr in rrs if rr.rtype == rtype]

    # -- codec -------------------------------------------------------------

    def encode(self, max_size: int | None = None, compress: bool = True) -> bytes:
        """Serialise to wire format.

        If ``max_size`` is given and the message does not fit, RR sections
        are emptied and the TC bit is set — this is the RFC 1035 truncation
        signal that redirects requesters to TCP.
        """
        if compress and self._wire is not None:
            wire = self._wire
        else:
            wire = self._encode_once(compress)
        if max_size is not None and len(wire) > max_size:
            truncated = Message(
                header=dataclasses.replace(self.header, tc=True),
                questions=list(self.questions),
            )
            wire = truncated._encode_once(compress)
        return wire

    def copy(self) -> "Message":
        """An editable copy: shares the header and records, owns its section lists.

        Never frozen, so attaching or stripping a record on the copy of a
        frozen message changes what it encodes to.  An edit the wire can
        follow goes through a derivation instead (:meth:`with_header`,
        ``cookie_ext.with_cookie`` / ``without_cookie``), which keeps the
        memo.
        """
        return Message(
            self.header,
            list(self.questions),
            list(self.answers),
            list(self.authorities),
            list(self.additionals),
        )

    def freeze(self) -> "Message":
        """Memoize the compressed wire form; further mutation is a bug.

        Per-packet paths send one message *shape* many times (attack
        templates, a load generator's query, per-question responses):
        producers freeze one prototype per shape and derive each packet's
        message from it, so :meth:`encode` / :meth:`wire_size` of the
        derived message is a lookup and the shape is serialised once.
        """
        if self._wire is None:
            self._wire = self._encode_once(True)
        return self

    def freeze_as(self, sections_wire: bytes) -> "Message":
        """Freeze without encoding: the memo is derived, not serialised.

        ``sections_wire`` is everything after the header, which the caller
        derived from a frozen message's :attr:`sections_wire` by an edit it
        can prove wire-preserving (a root-owned record appended or removed
        at the end, one fixed-width label run replaced); the header is
        packed here from this message's own flags and section counts.  The
        contract is :meth:`freeze`'s: the memo equals ``_encode_once(True)``.
        """
        self._wire = (
            self.header.pack(
                len(self.questions),
                len(self.answers),
                len(self.authorities),
                len(self.additionals),
            )
            + sections_wire
        )
        return self

    def with_header(self, header: Header) -> "Message":
        """This message under another header (id, flags), owning its lists.

        Only the first :data:`HEADER_SIZE` bytes of the wire depend on the
        header, so the copy of a frozen message is born frozen; the copy
        of an unfrozen one is :meth:`copy` under ``header``.
        """
        derived = self.copy()
        derived.header = header
        if self._wire is not None:
            derived.freeze_as(self._wire[HEADER_SIZE:])
        return derived

    @property
    def sections_wire(self) -> bytes | None:
        """The memoized wire after the header; ``None`` while unfrozen."""
        return None if self._wire is None else self._wire[HEADER_SIZE:]

    def _encode_once(self, compress: bool) -> bytes:
        header = self.header.pack(
            len(self.questions), len(self.answers), len(self.authorities), len(self.additionals)
        )
        buffer = bytearray(header)
        offsets: Offsets | None = {} if compress else None
        for section in (self.questions, self.answers, self.authorities, self.additionals):
            for entry in section:
                entry.encode(buffer, offsets)
        return bytes(buffer)

    @classmethod
    def decode(cls, data: bytes) -> "Message":
        header, offset = Header.decode(data)
        msg = cls(header=header)
        for _ in range(header.qdcount):
            question, offset = Question.decode(data, offset)
            msg.questions.append(question)
        for count, section in (
            (header.ancount, msg.answers),
            (header.nscount, msg.authorities),
            (header.arcount, msg.additionals),
        ):
            for _ in range(count):
                rr, offset = ResourceRecord.decode(data, offset)
                section.append(rr)
        return msg

    def wire_size(self) -> int:
        """Size of the encoded message in bytes (with compression)."""
        if self._wire is not None:
            return len(self._wire)
        return len(self.encode())

    def __str__(self) -> str:
        flags = []
        h = self.header
        for bit in ("qr", "aa", "tc", "rd", "ra"):
            if getattr(h, bit):
                flags.append(bit)
        parts = [
            f"id={h.msg_id} {Opcode(h.opcode).name} {Rcode(h.rcode).name} [{' '.join(flags)}]"
        ]
        for q in self.questions:
            parts.append(f"  ? {q.qname} {RRType.name_of(q.qtype)}")
        for tag, rrs in (("an", self.answers), ("ns", self.authorities), ("ar", self.additionals)):
            for rr in rrs:
                parts.append(f"  {tag} {rr.name} {rr.ttl} {RRType.name_of(rr.rtype)} {rr.rdata!r}")
        return "\n".join(parts)


#: Entries a producer's per-shape prototype table may hold.  Question names
#: key these tables and can be attacker-chosen, so a full table is flushed
#: whole; a flush costs each live shape one ordinary encode.
PROTOTYPE_CAP = 4096


def keep_prototype(table: dict, key, prototype):
    """``table[key] = prototype`` under :data:`PROTOTYPE_CAP`; returns ``prototype``.

    The one eviction policy of every per-shape table (the load tools'
    frozen queries and responses, the guard's restored queries and cookie
    slots): a producer looks up with ``table.get`` and comes here on a miss.
    The message built and frozen on that miss is sent as it is — the first
    of a shape *is* its prototype, read by every receiver and edited by
    none — so a shape that never recurs costs no copy.
    """
    if len(table) >= PROTOTYPE_CAP:
        table.clear()
    table[key] = prototype
    return prototype


#: Minimum on-the-wire IP packet size for a DNS request that the paper quotes
#: ("around 50 bytes") when reasoning about amplification ratios.
TYPICAL_REQUEST_IP_BYTES = 50

__all__ = [
    "Question",
    "ResourceRecord",
    "Message",
    "HEADER_SIZE",
    "MAX_UDP_PAYLOAD",
    "PROTOTYPE_CAP",
    "TYPICAL_REQUEST_IP_BYTES",
    "keep_prototype",
]
