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
from types import EllipsisType

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


#: :attr:`Message._cookie` before a scan.  ``Ellipsis`` is a singleton that
#: survives ``copy`` and pickling; ``None`` means "scanned: no cookie".
UNSCANNED = ...


@dataclasses.dataclass(slots=True)
class Message:
    """A complete DNS message."""

    header: Header = dataclasses.field(default_factory=Header)
    questions: list[Question] = dataclasses.field(default_factory=list)
    answers: list[ResourceRecord] = dataclasses.field(default_factory=list)
    authorities: list[ResourceRecord] = dataclasses.field(default_factory=list)
    additionals: list[ResourceRecord] = dataclasses.field(default_factory=list)
    #: the memoized wire past the id and flags (the counts and sections),
    #: set when the message is frozen (:meth:`freeze`, :meth:`freeze_as`, the
    #: decode memo) and shared by every message re-headed from it:
    #: ``pack("!HH", id, flags) + _body`` is always the bytes
    #: ``_encode_once(True)`` would produce (never part of equality/repr)
    _body: bytes | None = dataclasses.field(
        default=None, repr=False, compare=False
    )
    #: what ``cookie_ext.extract_cookie`` finds in a frozen message: set
    #: only while ``_body`` is, by that scan or by a derivation that knows
    #: the answer (never part of equality/repr)
    _cookie: bytes | None | EllipsisType = dataclasses.field(
        default=UNSCANNED, repr=False, compare=False
    )

    def __eq__(self, other: object) -> bool:
        """Header and records; a frozen message equals its unfrozen twin."""
        if not isinstance(other, Message):
            return NotImplemented
        return self._shape() == other._shape()

    def _shape(self) -> tuple:
        sections = (self.questions, self.answers, self.authorities, self.additionals)
        return (self.header, *map(tuple, sections))

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
        signal that redirects requesters to TCP.  A frozen message packs
        its id and flags in front of the memoized rest.
        """
        if compress and self._body is not None:
            header = self.header
            wire = struct.pack("!HH", header.msg_id & 0xFFFF, header.flags_word()) + self._body
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

        The one way to edit a frozen message's records, whose sections are
        tuples.  Never frozen, so attaching or stripping a record on the
        copy changes what it encodes to.  An edit the wire can follow goes
        through a derivation instead (:meth:`with_header`,
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
        """Memoize the compressed wire form and seal the sections.

        Per-packet paths send one message *shape* many times (attack
        templates, a load generator's query, per-question responses):
        producers freeze one prototype per shape and derive each packet's
        message from it, so :meth:`encode` / :meth:`wire_size` of the
        derived message is a lookup and the shape is serialised once.  The
        four sections become tuples here, so an in-place edit of a frozen
        message raises; :meth:`copy` is editable.
        """
        if self._body is None:
            self._seal(self._encode_once(True)[4:])
        return self

    def freeze_as(self, sections_wire: bytes) -> "Message":
        """Freeze without encoding: the memo is derived, not serialised.

        ``sections_wire`` is everything after the header, which the caller
        derived from a frozen message's :attr:`sections_wire` by an edit it
        can prove wire-preserving (a root-owned record appended or removed
        at the end, one fixed-width label run replaced); the section counts
        are packed here from this message's own sections.  The contract is
        :meth:`freeze`'s: the memo equals ``_encode_once(True)``.
        """
        counts = map(len, (self.questions, self.answers, self.authorities, self.additionals))
        return self._seal(struct.pack("!HHHH", *counts) + sections_wire)

    def _seal(self, body: bytes) -> "Message":
        self.questions = tuple(self.questions)  # type: ignore[assignment]
        self.answers = tuple(self.answers)  # type: ignore[assignment]
        self.authorities = tuple(self.authorities)  # type: ignore[assignment]
        self.additionals = tuple(self.additionals)  # type: ignore[assignment]
        self._body = body
        return self

    def with_header(self, header: Header) -> "Message":
        """This message under another header (id, flags).

        Only the wire's first four bytes, the id and flags, depend on the
        header (the counts are this message's), so the copy of a frozen
        message is born frozen: it holds this one's section tuples and
        ``_body`` themselves, so a re-head builds no list and no bytes, and
        it knows its cookie if this one does.  The copy of an unfrozen one
        is :meth:`copy` under ``header``.
        """
        if self._body is None:
            message = self.copy()
            message.header = header
            return message
        return Message(
            header, self.questions, self.answers, self.authorities, self.additionals,
            self._body, self._cookie,
        )

    @property
    def sections_wire(self) -> bytes | None:
        """The memoized wire after the header; ``None`` while unfrozen."""
        return None if self._body is None else self._body[HEADER_SIZE - 4 :]

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
        """Parse a wire message; the result may be frozen.

        Decodes go through a memo keyed on the wire after the message id,
        which pays off for a shape that recurs under fresh ids (a proxied
        query, a load tool's reply).  A shape's first sighting is only
        parsed and its key recorded: verifying every shape on sight would
        double the cost of one that never recurs.  Its second sighting is
        parsed and, if it is at most :data:`MAX_UDP_PAYLOAD` bytes and its
        encoding reproduces it exactly, frozen (its sections sealed, the
        wire past the id and flags its memo), kept as the prototype and
        returned; every later sighting is the prototype's section tuples and
        memo under a freshly decoded header, born frozen and knowing the
        prototype's cookie once a scan has found it: it copies no list and
        no bytes.  A frozen message is edited through :meth:`copy` or a
        derivation; an in-place edit raises.
        """
        if len(data) > MAX_UDP_PAYLOAD:
            return cls._parse(data)
        key = bytes(data[2:])
        prototype = _decoded.get(key)
        if prototype is None:  # first sighting: parse, remember the key
            parsed = cls._parse(data)
            keep_prototype(_decoded, key, _SEEN)
            return parsed
        if prototype is _ORDINARY:
            return cls._parse(data)
        if prototype is _SEEN:  # second sighting: keep it if we would write it
            prototype = cls._parse(data)
            if prototype._encode_once(True) != data:
                _decoded[key] = _ORDINARY
                return prototype
            _decoded[key] = prototype._seal(key[2:])
            return prototype
        header, _ = Header.decode(data)
        return cls(
            header, prototype.questions, prototype.answers, prototype.authorities,
            prototype.additionals, prototype._body, prototype._cookie,
        )

    @classmethod
    def _parse(cls, data: bytes) -> "Message":
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
        if self._body is not None:
            return 4 + len(self._body)
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


#: :meth:`Message.decode`'s memo: wire after the message id -> ``_SEEN``
#: (parsed once), ``_ORDINARY`` (a wire the encoder would not write) or the
#: verified prototype.  Keys are at most :data:`MAX_UDP_PAYLOAD` bytes and
#: the table is flushed whole at :data:`PROTOTYPE_CAP`.
_SEEN = "seen"
_ORDINARY = "ordinary"
_decoded: dict[bytes, "Message | str"] = {}  # repro: allow[L003] - bounded content-addressed memo, replay-invisible


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
