"""The modified-DNS cookie extension (paper §III.D, Figure 3b).

A cookie rides in the additional-RR section as a TXT record owned by the
root name with TTL 0.  The RData holds one 16-byte character-string: the
cookie.  An all-zero cookie in a query means "I do not know your cookie
yet — please tell me" (message 2 of Figure 3a); the remote guard answers
with the correct cookie in the same format (message 3), sized identically
so there is no traffic amplification.
"""

from __future__ import annotations

from .message import Message, ResourceRecord
from .name import ROOT
from .rdata import TXT
from .types import RRClass, RRType

#: Cookie length carried by the extension (the paper uses MD5's 16 bytes).
COOKIE_LENGTH = 16

#: The all-zero cookie: "please send me my cookie".
ZERO_COOKIE = bytes(COOKIE_LENGTH)


def cookie_rr(cookie: bytes) -> ResourceRecord:
    """The additional-section TXT record carrying ``cookie`` (Fig 3b)."""
    if len(cookie) != COOKIE_LENGTH:
        raise ValueError(f"cookie must be {COOKIE_LENGTH} bytes, got {len(cookie)}")
    return ResourceRecord(ROOT, RRType.TXT, RRClass.IN, 0, TXT.single(cookie))


def _record_wire(record: ResourceRecord) -> bytes:
    buffer = bytearray()
    record.encode(buffer, None)
    return bytes(buffer)


#: What the encoder writes before the cookie bytes of a :func:`cookie_rr`
#: record: root owner, TXT/IN, TTL 0, RDLENGTH and the character-string
#: length.  A root owner neither uses nor offers a compression target, so
#: the record is these bytes plus the cookie wherever it is appended.
_RECORD_HEAD = _record_wire(cookie_rr(ZERO_COOKIE))[:-COOKIE_LENGTH]
_RECORD_SIZE = len(_RECORD_HEAD) + COOKIE_LENGTH


def attach_cookie(message: Message, cookie: bytes) -> Message:
    """Attach (or replace) the cookie record on ``message`` in place."""
    strip_cookie(message)
    message.additionals.append(cookie_rr(cookie))
    return message


def _is_cookie_record(rr: ResourceRecord) -> bool:
    return (
        rr.rtype == RRType.TXT
        and rr.name.is_root()
        and isinstance(rr.rdata, TXT)
        and len(rr.rdata.payload) == COOKIE_LENGTH
    )


def with_cookie(message: Message, cookie: bytes) -> Message:
    """``attach_cookie`` on a copy: ``message`` is left as it was.

    The copy of a frozen message that carried no cookie is born frozen —
    its wire is the original's plus the fixed-size record, ARCOUNT + 1.
    """
    stamped = attach_cookie(message.copy(), cookie)
    wire = message.sections_wire
    if wire is not None and len(stamped.additionals) == len(message.additionals) + 1:
        stamped.freeze_as(wire + _RECORD_HEAD + cookie)
    return stamped


def without_cookie(message: Message) -> Message:
    """``strip_cookie`` on a copy: ``message`` is left as it was.

    The copy of a frozen message is born frozen when there was nothing to
    strip, or when the one cookie record was the last additional and held
    its cookie as a single character-string (what :func:`cookie_rr` builds):
    the wire then ends with that record's fixed-size encoding.
    """
    clean = strip_cookie(message.copy())
    wire = message.sections_wire
    if wire is None:
        return clean
    stripped = len(message.additionals) - len(clean.additionals)
    if stripped == 0:
        return clean.freeze_as(wire)
    last = message.additionals[-1]
    if (
        stripped == 1
        and _is_cookie_record(last)
        and len(last.rdata.strings) == 1  # type: ignore[union-attr]
    ):
        clean.freeze_as(wire[:-_RECORD_SIZE])
    return clean


def extract_cookie(message: Message) -> bytes | None:
    """The cookie carried by ``message``, or ``None`` if not cookie-capable.

    Only a root-owned TXT record in the additional section with exactly
    ``COOKIE_LENGTH`` bytes of payload is recognised; anything else is left
    untouched so the extension never collides with ordinary TXT usage.
    """
    for rr in message.additionals:
        if (
            rr.rtype == RRType.TXT
            and rr.name.is_root()
            and isinstance(rr.rdata, TXT)
            and len(rr.rdata.payload) == COOKIE_LENGTH
        ):
            return rr.rdata.payload
    return None


def strip_cookie(message: Message) -> Message:
    """Remove any cookie record so the protected ANS never sees the extension."""
    message.additionals = [rr for rr in message.additionals if not _is_cookie_record(rr)]
    return message


def is_cookie_request(message: Message) -> bool:
    """True if ``message`` carries the all-zero "send me a cookie" marker."""
    return extract_cookie(message) == ZERO_COOKIE
