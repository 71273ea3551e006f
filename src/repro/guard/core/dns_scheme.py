"""Message fabrication for the DNS-based scheme (paper §III.B, Figure 2).

The guard embeds a cookie in a fabricated NS name that is a *single label
directly under the protected zone's origin*.  That placement is the whole
trick: a standard resolver that wants the fabricated nameserver's address
has no choice but to ask the very servers authoritative for the origin —
i.e. the guard itself — and that follow-up query (message 3) carries the
cookie in its QNAME where the guard can verify it.

The label packs the 10-byte cookie (``PR`` + 8 hex chars) followed by the
original question's labels relative to the origin, dot-joined, so the guard
can restore the original query (message 4) statelessly.

The cookie's width is configuration, so for one question the two replies
the guard fabricates (messages 2 and 6) differ between requesters only in
the header and in those bytes: a :class:`CookieSlot` is one such reply,
built the reference way and frozen, with the cookie located in its wire.
:func:`referral_from_slot` / :func:`answer_from_slot` restate the two
reference builders around the slot's objects and wire (the slot's own
requester gets the slot's reply re-headed).  The names the codec derives
— the question restored from a cookie label, a slot's target under
another cookie — are cut from labels already validated, so
``Name._derived`` builds them unchecked.  The adapter keeps the slots (a
bounded table per guard instance); nothing is stored here.

Pure core: the codec is a function of the message and the origin alone —
no clock, no randomness, no transport.
"""

from __future__ import annotations

import dataclasses


from ...dnswire import (
    Header,
    Message,
    Name,
    Question,
    ResourceRecord,
    RRClass,
    RRType,
    NS,
    A,
    make_response,
    response_header,
)
from ...dnswire.types import MAX_LABEL_LENGTH
from .cookie import LABEL_COOKIE_LENGTH, LABEL_PREFIX

__layer__ = "pure-core"

#: Trust boundary for the flow analyser (``repro.analysis.flow``).  These
#: are pure codec helpers: :func:`decode_cookie_name` output is derived
#: entirely from the attacker-controlled QNAME and stays tainted in the
#: caller — verification happens in the pipeline via ``verify_label``,
#: never here.  No entry points, no sinks.
__trust_boundary__ = {
    "scheme": "ns_name",
    "entry_points": [],
    "taint_params": [],
    "assumes": (
        "decode output is untrusted parse structure; the pipeline must "
        "pass decoded.cookie_label through cookies.verify_label before "
        "acting on it (enforced there by T001)"
    ),
}

#: State-bound declaration for the memory analyser
#: (``repro.analysis.memory``): honestly empty.  The NS-name codec is a
#: pure encode/decode layer — cookie material rides in the QNAME itself
#: (§III.B), so the scheme needs no per-query table on the server side.
__state_bounds__ = {}

#: Default TTL for fabricated NS records — one week, the paper's example
#: rotation interval, so cookies stay cached and most queries take 1 RTT.
FABRICATED_NS_TTL = 7 * 24 * 3600


@dataclasses.dataclass(frozen=True, slots=True)
class CookieName:
    """A decoded cookie-bearing QNAME."""

    cookie_label: bytes  # the 10-byte PR+hex prefix
    original_qname: Name  # the restored original question name


def encode_cookie_name(cookie_label: bytes, original_qname: Name, origin: Name) -> Name | None:
    """The fabricated NS target for ``original_qname``, or None if too long.

    Returns a name of exactly one label under ``origin``; the label is the
    cookie followed by the original name's origin-relative labels joined
    with literal dots.  Labels are binary-safe on the wire, so one may hold
    a dot of its own: such a name "does not fit" either — joined, it would
    decode to a different question than the one asked.
    """
    relative = original_qname.relativize(origin)
    label = cookie_label + b".".join(relative)
    if len(label) > MAX_LABEL_LENGTH or b"." in b"".join(relative):
        return None
    return Name((label, *origin.labels))


def decode_cookie_name(
    qname: Name, origin: Name, *, cookie_length: int = LABEL_COOKIE_LENGTH
) -> CookieName | None:
    """Parse a QNAME as a cookie name under ``origin``; None if it is not one.

    ``cookie_length`` is the deploying guard's configured label-cookie width
    (marker prefix plus hex digits).
    """
    if len(qname.labels) != len(origin.labels) + 1:
        return None
    if not qname.is_subdomain_of(origin):
        return None
    label = qname.labels[0]
    # the marker check is case-insensitive so DNS-0x20 resolvers (which
    # randomise the letter casing of every query) interoperate
    if label[:2].upper() != LABEL_PREFIX or len(label) < cookie_length:
        return None
    cookie_label = label[:cookie_length]
    suffix = label[cookie_length:]
    if suffix:
        parts = suffix.split(b".")
        if b"" in parts:
            return None
        # each part is a non-empty slice of one valid label, and each lost
        # dot comes back as a length byte: shorter on the wire than qname
        original = Name._derived((*parts, *origin.labels))
    else:
        original = origin
    return CookieName(cookie_label, original)


def delegation_owner(qname: Name, origin: Name) -> Name:
    """The name the fabricated referral claims is delegated.

    One label below the origin (``com`` for a root guard), so the requester
    caches the fabricated delegation at the same cut a real referral would
    use.  When ``qname`` is the origin itself, the origin is returned.
    """
    relative = qname.relativize(origin)
    if not relative:
        return qname
    return origin.child(relative[-1])


def fabricated_referral(
    query: Message, origin: Name, cookie_label: bytes, *, ttl: int = FABRICATED_NS_TTL
) -> Message | None:
    """Message 2: a referral whose NS name embeds the cookie (no glue).

    Returns None when the original name cannot fit in the cookie label — the
    caller should fall back to the TCP-based scheme.
    """
    qname = query.question.qname
    ns_target = encode_cookie_name(cookie_label, qname, origin)
    if ns_target is None:
        return None
    response = make_response(query)
    owner = delegation_owner(qname, origin)
    response.authorities.append(
        ResourceRecord(owner, RRType.NS, RRClass.IN, ttl, NS(ns_target))
    )
    return response


def cookie_name_answer(
    query: Message, addresses: list[ResourceRecord] | list, *, ttl: int | None = None
) -> Message:
    """Message 6: answer the cookie-name A query with the given addresses.

    ``addresses`` may be A ResourceRecords (referral glue, keeping their own
    TTLs) or bare addresses, ints or ``IPv4Address`` (the COOKIE2 case, using
    ``ttl``).
    """
    response = make_response(query)
    qname = query.question.qname
    for item in addresses:
        if isinstance(item, ResourceRecord):
            response.answers.append(
                ResourceRecord(qname, RRType.A, RRClass.IN, item.ttl, item.rdata)
            )
        else:
            response.answers.append(
                ResourceRecord(
                    qname, RRType.A, RRClass.IN, ttl or FABRICATED_NS_TTL, A(item)
                )
            )
    return response


@dataclasses.dataclass(frozen=True, slots=True)
class CookieSlot:
    """One fabricated reply, frozen, with the label cookie cut out of its wire.

    ``before + cookie + after`` is the reply's wire after the header for
    whichever cookie of ``width`` bytes fills the slot: the cookie opens the
    first label of a name no other name in the reply can be a suffix of, so
    the encoder lays every requester's reply out the same way.
    """

    reply: Message
    width: int
    before: bytes
    after: bytes


def cookie_slot(reply: Message, cookie_name: Name, width: int) -> CookieSlot | None:
    """Freeze ``reply`` and locate the cookie that opens ``cookie_name``.

    None when the name's first label does not occur exactly once in the
    wire — the reply then stays an ordinary message and so do its
    successors (a question crafted to contain the label bytes, say).
    """
    label = cookie_name.labels[0]
    needle = bytes((len(label),)) + label
    wire = reply.freeze().sections_wire
    if wire is None or wire.count(needle) != 1:
        return None
    at = wire.index(needle) + 1
    return CookieSlot(reply, width, wire[:at], wire[at + width :])


def referral_from_slot(slot: CookieSlot, query: Message, cookie_label: bytes) -> Message:
    """What :func:`fabricated_referral` returns for ``query``, born frozen.

    The caller's table key is the precondition: ``query`` asks the one
    question (case-exact) the slot's reply answered, under the same origin,
    and ``cookie_label`` is ``slot.width`` bytes.  What depends on neither
    the requester nor the cookie — the owner name, the TTL, the target's
    labels after the cookie — is the slot's, not recomputed.
    """
    record = slot.reply.authorities[0]
    labels = record.rdata.target.labels  # type: ignore[union-attr]
    if labels[0][: slot.width] == cookie_label:  # the slot's own requester
        return slot.reply.with_header(response_header(query))
    # the new first label is as long as the slot's own
    target = Name._derived((cookie_label + labels[0][slot.width :], *labels[1:]))
    response = make_response(query)
    response.authorities.append(
        ResourceRecord(record.name, RRType.NS, RRClass.IN, record.ttl, NS(target))
    )
    return response.freeze_as(slot.before + cookie_label + slot.after)


def answer_from_slot(slot: CookieSlot, msg_id: int, cookie_qname: Name) -> Message:
    """What :func:`cookie_name_answer` returns to ``make_query(cookie_qname,
    RRType.A, msg_id=msg_id)`` with the slot's addresses, born frozen.

    The caller's table key is the precondition: ``cookie_qname`` differs
    from the slot's own question name only in its first ``slot.width``
    bytes, which are echoed as the requester sent them (DNS-0x20).
    """
    header = Header(msg_id, True)  # (msg_id, qr) positional: no kwargs dict per answer
    if cookie_qname.labels == slot.reply.questions[0].qname.labels:  # its own requester
        return slot.reply.with_header(header)
    response = Message(
        header,
        [Question(cookie_qname, RRType.A, RRClass.IN)],
        [
            ResourceRecord(cookie_qname, RRType.A, RRClass.IN, rr.ttl, rr.rdata)
            for rr in slot.reply.answers
        ],
    )
    cookie = cookie_qname.labels[0][: slot.width]
    return response.freeze_as(slot.before + cookie + slot.after)
