"""The modified-DNS cookie extension (paper §III.D, Figure 3b).

A cookie rides in the additional-RR section as a TXT record owned by the
root name with TTL 0.  The RData holds one 16-byte character-string: the
cookie.  An all-zero cookie in a query means "I do not know your cookie
yet — please tell me" (message 2 of Figure 3a); the remote guard answers
with the correct cookie in the same format (message 3), sized identically
so there is no traffic amplification.

The memo contract: a frozen message is immutable, so :func:`extract_cookie`
scans one once and keeps the answer in ``Message._cookie``; every derivation
that knows the answer (``with_header``, the decode memo, :func:`with_cookie`,
:func:`without_cookie`) hands it on.  An unfrozen message is scanned on
every call.  A hot path may read ``message._cookie`` inline and call
:func:`extract_cookie` only when it is ``UNSCANNED``: the same answer, no
frame.  The guards do, and ``TestInlineMemoReaders`` in
``tests/dnswire/test_cookie_ext.py`` holds every such reader to that form.
The two derivations also keep one prototype per shape: the
stamped message per (wire past the id and flags, cookie) and the stripped
one per wire past the id and flags, so a recurring shape is derived once and
then re-headed (``prototype.with_header(message.header)``).  The key holds
the section counts as well as the sections, because the same record bytes
under other counts are another message.
"""

from __future__ import annotations

from .header import HEADER_SIZE
from .message import UNSCANNED, Message, ResourceRecord, keep_prototype
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

#: cookie bytes -> its :func:`cookie_rr` record, flushed whole at ``PROTOTYPE_CAP``
_records: dict[bytes, ResourceRecord] = {}  # repro: allow[L003] - bounded content-addressed memo, replay-invisible

#: (wire past the id and flags, cookie) -> the frozen :func:`with_cookie`
#: result, flushed whole at ``PROTOTYPE_CAP``
_stamped: dict[tuple[bytes, bytes], Message] = {}  # repro: allow[L003] - bounded content-addressed memo, replay-invisible

#: wire past the id and flags -> the frozen :func:`without_cookie` result,
#: flushed whole at ``PROTOTYPE_CAP``
_stripped: dict[bytes, Message] = {}  # repro: allow[L003] - bounded content-addressed memo, replay-invisible


def attach_cookie(message: Message, cookie: bytes) -> Message:
    """Attach (or replace) the cookie record on ``message`` in place.

    ``message`` must be unfrozen (a fresh build or a :meth:`Message.copy`);
    a frozen one, decoded ones included, goes through :func:`with_cookie`.
    """
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

    The copy of a frozen message that carried no cookie is born frozen and
    knowing its cookie: the original's records plus a memoized record, its
    wire the original's plus the fixed-size record, ARCOUNT + 1.  The first
    such copy of a shape under a cookie is kept: each later one is that copy
    re-headed.
    """
    wire = message._wire
    if wire is not None:
        key = (wire[4:], cookie)
        prototype = _stamped.get(key)
        if prototype is not None:
            return prototype.with_header(message.header)
    if wire is None or extract_cookie(message) is not None:
        return attach_cookie(message.copy(), cookie)
    record = _records.get(cookie)
    if record is None:
        record = keep_prototype(_records, cookie, cookie_rr(cookie))
    stamped = message.copy()
    stamped.additionals.append(record)
    stamped.freeze_as(wire[HEADER_SIZE:] + _RECORD_HEAD + cookie)
    stamped._cookie = cookie
    return keep_prototype(_stamped, key, stamped)


def without_cookie(message: Message) -> Message:
    """``strip_cookie`` on a copy: ``message`` is left as it was.

    The copy of a frozen message is born frozen when there was nothing to
    strip, or when the one cookie record was the last additional and held
    its cookie as a single character-string (what :func:`cookie_rr` builds):
    the wire then ends with that record's fixed-size encoding.  The first
    frozen copy of a shape is kept: each later one is that copy re-headed.
    """
    wire = message._wire
    if wire is not None:
        key = wire[4:]
        prototype = _stripped.get(key)
        if prototype is not None:
            return prototype.with_header(message.header)
    clean = strip_cookie(message.copy())
    if wire is None:
        return clean
    stripped = len(message.additionals) - len(clean.additionals)
    if stripped == 0:
        clean.freeze_as(wire[HEADER_SIZE:])
    elif (
        stripped == 1
        and _is_cookie_record(last := message.additionals[-1])
        and len(last.rdata.strings) == 1  # type: ignore[union-attr]
    ):
        clean.freeze_as(wire[HEADER_SIZE:-_RECORD_SIZE])
    else:
        return clean
    clean._cookie = None
    return keep_prototype(_stripped, key, clean)


def extract_cookie(message: Message) -> bytes | None:
    """The cookie carried by ``message``, or ``None`` if not cookie-capable.

    Only a root-owned TXT record in the additional section with exactly
    ``COOKIE_LENGTH`` bytes of payload is recognised; anything else is left
    untouched so the extension never collides with ordinary TXT usage.  A
    frozen message is scanned once: the answer is kept on it.
    """
    cookie = message._cookie
    if cookie is not UNSCANNED:
        return cookie
    cookie = None
    for rr in message.additionals:
        if (
            rr.rtype == RRType.TXT
            and rr.name.is_root()
            and isinstance(rr.rdata, TXT)
            and len(rr.rdata.payload) == COOKIE_LENGTH
        ):
            cookie = rr.rdata.payload
            break
    if message._wire is not None:
        message._cookie = cookie
    return cookie


def strip_cookie(message: Message) -> Message:
    """Remove any cookie record so the protected ANS never sees the extension.

    In place, so ``message`` must be unfrozen; see :func:`without_cookie`.
    """
    message.additionals = [rr for rr in message.additionals if not _is_cookie_record(rr)]
    return message


def is_cookie_request(message: Message) -> bool:
    """True if ``message`` carries the all-zero "send me a cookie" marker."""
    return extract_cookie(message) == ZERO_COOKIE
