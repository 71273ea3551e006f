"""Property: a derived wire memo is the encoder's bytes, or it is absent.

Every producer that sends one message shape many times keeps a frozen
prototype and derives each packet's message from it — a re-head, the
modified-DNS cookie record appended or removed, the label cookie spliced
into a fabricated reply.  Each derivation must return either an unfrozen
message or one whose ``pack("!HH", id, flags) + _body == _encode_once(True)``,
and the message it
returns must ``==`` the one the slow path builds.  The slow paths live on
in ``src`` (``make_query``, ``attach_cookie``/``strip_cookie`` on a copy,
``fabricated_referral``, ``cookie_name_answer``); the ANS simulator's is
written out below, and the BIND server keeps its own as ``_respond``.

``Message.decode`` derives too: from the third sighting of a wire (after
the message id) it returns a memoized prototype's section tuples and
``_body`` under the received header.  The full parse,
``Message._parse``, is its reference.
"""

import random
import struct
from ipaddress import IPv4Address

import pytest
from hypothesis import given, settings, strategies as st

from repro.dns import AnsSimulator, AuthoritativeServer, LrsSimulator, Zone
from repro.dnswire import (
    CNAME,
    MAX_UDP_PAYLOAD,
    Header,
    Message,
    Name,
    OPT,
    Question,
    ResourceRecord,
    RRClass,
    RRType,
    TXT,
    a_record,
    attach_cookie,
    make_query,
    make_response,
    ns_record,
    soa_record,
    strip_cookie,
    with_cookie,
    without_cookie,
)
from repro.guard import (
    CookieFactory,
    RemoteDnsGuard,
    cookie_name_answer,
    decode_cookie_name,
    encode_cookie_name,
    fabricated_referral,
)
from repro.guard.core.dns_scheme import answer_from_slot, cookie_slot, referral_from_slot
from repro.dnswire.message import _decoded
from repro.guard.core.cookie import KEY_LENGTH
from repro.netsim import Node, Simulator
from tests.property.test_wire_roundtrip import _txt_filler, ipv4s, messages, ttls

ANS = IPv4Address("203.0.113.53")

# labels as the wire allows them: any byte, dots included; letters in both
# cases so that two draws can differ by case alone (DNS-0x20); a few long
# enough that a cookie name cannot hold them
label_bytes = st.one_of(
    st.sampled_from([b"www", b"WwW", b"foo", b"FOO", b"com", b"a", b"a.b", b"\x00", b"x" * 40]),
    st.binary(min_size=1, max_size=12),
)
origins = st.lists(label_bytes, max_size=2).map(Name)
relatives = st.lists(label_bytes, max_size=3)
cookies16 = st.binary(min_size=16, max_size=16)
keys = st.binary(min_size=KEY_LENGTH, max_size=KEY_LENGTH)

headers = st.builds(
    Header,
    msg_id=st.integers(0, 0xFFFF),
    qr=st.booleans(),
    opcode=st.sampled_from([0, 2]),
    aa=st.booleans(),
    tc=st.booleans(),
    rd=st.booleans(),
    ra=st.booleans(),
    rcode=st.integers(0, 5),
)


def wire_holds(message: Message) -> bool:
    """The invariant: an absent memo, or exactly the encoder's bytes."""
    if message._body is None:
        return True
    head = struct.pack("!HH", message.header.msg_id, message.header.flags_word())
    return head + message._body == message._encode_once(True)


def same(derived: Message | None, reference: Message | None) -> bool:
    """Equal as messages *and* byte for byte: ``Name.__eq__`` folds case,
    the wire does not, and a DNS-0x20 requester compares the wire."""
    if derived is None or reference is None:
        return derived is reference
    return derived == reference and derived._encode_once(True) == reference._encode_once(True)


def maybe_frozen(draw, message: Message) -> Message:
    return message.freeze() if draw(st.booleans()) else message


# -- re-head -------------------------------------------------------------------


@given(data=st.data(), message=messages(), header=headers)
def test_with_header_is_the_message_under_that_header(data, message, header):
    maybe_frozen(data.draw, message)
    derived = message.with_header(header)
    assert same(
        derived,
        Message(
            header, message.questions, message.answers, message.authorities, message.additionals
        ),
    )
    assert wire_holds(derived) and wire_holds(message)
    assert (derived._body is None) == (message._body is None)
    if message._body is None:
        # the derived message owns its lists: editing it cannot reach the source
        derived.questions.clear()
        derived.additionals.clear()
    else:
        # a re-head builds no list and no bytes: it holds the source's own
        assert derived._body is message._body
        assert derived.questions is message.questions
        assert derived.additionals is message.additionals
        with pytest.raises(AttributeError):
            derived.additionals.append(OPT_RR)
    assert wire_holds(message)


@given(message=messages(), header=headers)
def test_a_frozen_message_equals_its_unfrozen_twin(message, header):
    """Sections are tuples once frozen and lists before: equality is the
    header and the records either way, re-headed too, and still tells a
    record apart."""
    twin = message.copy()
    message.freeze()
    assert message == twin and twin == message
    assert message.with_header(header) == twin.with_header(header)
    other = twin.copy()
    other.additionals.append(OPT_RR)
    assert message != other and other != message


# -- the decode memo -------------------------------------------------------------

sightings = st.lists(st.integers(0, 0xFFFF), min_size=3, max_size=6)


def under_id(wire: bytes, msg_id: int) -> bytes:
    return struct.pack("!H", msg_id) + wire[2:]


@settings(deadline=None)
@given(message=messages(), ids=sightings)
def test_decode_is_the_full_parse_at_every_sighting(message, ids):
    _decoded.clear()
    canonical = message.encode()
    for sighting, msg_id in enumerate(ids):
        wire = under_id(canonical, msg_id)
        decoded = Message.decode(wire)
        assert same(decoded, Message._parse(wire)) and wire_holds(decoded)
        # frozen from the second sighting on, and only within the UDP limit;
        # from the third on, holding the kept prototype's sections and memo
        frozen = sighting >= 1 and len(wire) <= MAX_UDP_PAYLOAD
        assert decoded._body == (wire[4:] if frozen else None)
        if frozen and sighting >= 2:
            prototype = _decoded[wire[2:]]
            assert decoded._body is prototype._body
            assert decoded.answers is prototype.answers
        # an edit through copy() (which shares the header: replace it, never
        # assign its fields) reaches neither the memo nor a later decode
        edited = decoded.copy()
        edited.header = Header(msg_id=decoded.header.msg_id, qr=True, rcode=5)
        edited.questions.clear()
        edited.answers.append(OPT_RR)
        edited.additionals = []
        assert wire_holds(decoded)


@settings(deadline=None)
@given(
    data=st.data(),
    message=messages(),
    ids=sightings,
    variant=st.sampled_from(["uncompressed", "z_bit", "oversize"]),
)
def test_a_wire_the_encoder_would_not_write_is_never_kept(data, message, ids, variant):
    """Uncompressed names, a set Z/AD/CD bit, or more than 512 bytes: every
    sighting is a full parse, unfrozen, and no prototype is kept."""
    _decoded.clear()
    if variant == "uncompressed":
        wire = message.encode(compress=False)
        if wire == message.encode():
            return  # nothing to compress: the wire is canonical
    elif variant == "z_bit":
        wire = bytearray(message.encode())
        wire[3] |= data.draw(st.sampled_from([0x40, 0x20, 0x10]))
        wire = bytes(wire)
    else:
        message.additionals = message.additionals + _txt_filler(2)
        wire = message.encode()
        assert len(wire) > MAX_UDP_PAYLOAD
    for msg_id in ids:
        decoded = Message.decode(under_id(wire, msg_id))
        assert same(decoded, Message._parse(under_id(wire, msg_id)))
        assert decoded._body is None
    assert not isinstance(_decoded.get(wire[2:]), Message)


# -- the modified-DNS cookie record ----------------------------------------------

OPT_RR = ResourceRecord(Name.root(), RRType.OPT, 4096, 0, OPT())


def cookie_record(cookie: bytes) -> ResourceRecord:
    return ResourceRecord(Name.root(), RRType.TXT, RRClass.IN, 0, TXT.single(cookie))


def split_cookie_record(cookie: bytes) -> ResourceRecord:
    """What ``extract_cookie`` also accepts: 16 bytes over two strings."""
    return ResourceRecord(Name.root(), RRType.TXT, 3, 7, TXT((cookie[:5], cookie[5:])))


@st.composite
def cookie_carriers(draw):
    """Messages with 0-2 questions whose additionals end with nothing in
    particular, the cookie, the cookie then an OPT, a cookie held as two
    strings, or two cookies — frozen or not."""
    message = draw(messages())
    first, second = draw(cookies16), draw(cookies16)
    message.additionals += draw(
        st.sampled_from(
            [
                [],
                [OPT_RR],
                [cookie_record(first)],
                [OPT_RR, cookie_record(first)],
                [cookie_record(first), OPT_RR],
                [split_cookie_record(first)],
                [cookie_record(first), cookie_record(second)],
                [split_cookie_record(first), cookie_record(second)],
            ]
        )
    )
    return maybe_frozen(draw, message)


@given(message=cookie_carriers(), cookie=cookies16)
def test_with_cookie_is_attach_on_a_copy(message, cookie):
    before = message.copy()
    derived = with_cookie(message, cookie)
    assert same(derived, attach_cookie(before.copy(), cookie))
    assert wire_holds(derived)
    assert message == before and wire_holds(message)


@given(message=cookie_carriers())
def test_without_cookie_is_strip_on_a_copy(message):
    before = message.copy()
    derived = without_cookie(message)
    assert same(derived, strip_cookie(before.copy()))
    assert wire_holds(derived)
    assert message == before and wire_holds(message)


@given(message=cookie_carriers(), cookie=cookies16)
def test_stamp_then_strip_keeps_a_frozen_query_frozen(message, cookie):
    """The Fig 6 path: local guard stamps, remote guard strips."""
    message = without_cookie(message)
    stamped = with_cookie(message, cookie)
    assert (stamped._body is None) == (message._body is None)
    stripped = without_cookie(stamped)
    assert same(stripped, message) and (stripped._body is None) == (message._body is None)
    assert wire_holds(stripped)


# -- the cookie-name codec ---------------------------------------------------------


@given(origin=origins, relative=relatives, cookie=st.binary(min_size=2, max_size=8))
def test_cookie_name_codec_is_injective_or_declines(origin, relative, cookie):
    """``decode(encode(q)).original_qname == q`` or ``encode(q) is None``:
    the guard never restores a question nobody asked."""
    try:
        qname = Name((*relative, *origin.labels))
    except Exception:
        return  # not a name at all
    cookie_label = b"PR" + cookie.hex().encode("ascii")
    encoded = encode_cookie_name(cookie_label, qname, origin)
    if encoded is None:
        return
    decoded = decode_cookie_name(encoded, origin, cookie_length=len(cookie_label))
    assert decoded is not None and decoded.cookie_label == cookie_label
    assert decoded.original_qname.labels[: len(relative)] == tuple(relative)
    assert decoded.original_qname == qname


def same_name(derived: Name, reference: Name) -> bool:
    """One name, however built: labels case-exact, equality and hash (which
    fold case), the wire with and without compression, and the text."""
    compressed, expected = bytearray(), bytearray()
    derived.encode(compressed, {})
    reference.encode(expected, {})
    return (
        type(derived) is Name
        and derived.labels == reference.labels
        and derived == reference
        and hash(derived) == hash(reference)
        and derived.to_wire() == reference.to_wire()
        and compressed == expected
        and str(derived) == str(reference)
    )


@given(
    origin=origins,
    relative=relatives,
    cookie=st.binary(min_size=1, max_size=8),
    other=st.binary(min_size=1, max_size=8),
    flips=st.lists(st.booleans(), min_size=64, max_size=64),
)
def test_a_derived_name_is_the_validated_name(origin, relative, cookie, other, flips):
    """``Name._derived`` skips the checks ``Name(...)`` makes: every name the
    decoder restores, every target a slot re-labels and every parent it is
    handed must be the one ``Name(...)`` builds from the same labels."""
    try:
        qname = Name((*relative, *origin.labels))
    except Exception:
        return  # not a name at all
    for name in (qname, origin):
        assert same_name(name.parent(), Name(name.labels[1:]))
    cookie_label = b"PR" + cookie.hex().encode("ascii")
    encoded = encode_cookie_name(cookie_label, qname, origin)
    if encoded is None:
        return
    # a DNS-0x20 requester's casing of the cookie name decodes as sent
    sent = Name(
        bytes(ord(chr(b).swapcase()) if flip and b < 0x80 else b for b, flip in zip(label, flips))
        for label in encoded.labels
    )
    decoded = decode_cookie_name(sent, origin, cookie_length=len(cookie_label))
    assert decoded is not None
    assert same_name(decoded.original_qname, Name(decoded.original_qname.labels))
    # message 2 for another requester: the slot's target under its cookie
    query = make_query(qname, RRType.A, msg_id=7)
    reply = fabricated_referral(query, origin, cookie_label)
    slot = cookie_slot(reply, encoded, len(cookie_label))
    if slot is None:
        return
    label = (b"PR" + other.hex().encode("ascii") + cookie_label)[: len(cookie_label)]
    target = referral_from_slot(slot, query, label).authorities[0].rdata.target
    assert same_name(target, Name(target.labels))
    assert target.labels[0][: len(label)] == label


@given(
    origin=origins,
    relative=relatives,
    cookie=st.binary(min_size=1, max_size=8),
    other=st.binary(min_size=1, max_size=8),
    rd=st.booleans(),
    glue=st.lists(ipv4s, min_size=1, max_size=2),
)
def test_a_slot_answers_its_own_and_another_requester_as_the_reference(
    origin, relative, cookie, other, rd, glue
):
    """Messages 2 and 6 from a slot: for the requester whose reply made the
    slot (the slot's reply re-headed) and for one with another cookie."""
    try:
        qname = Name((*relative, *origin.labels))
    except Exception:
        return  # not a name at all
    cookie_label = b"PR" + cookie.hex().encode("ascii")
    width = len(cookie_label)
    encoded = encode_cookie_name(cookie_label, qname, origin)
    if encoded is None:
        return
    other_label = (b"PR" + other.hex().encode("ascii") + cookie_label)[:width]
    addresses = [a_record(encoded, address, 60) for address in glue]
    referral = cookie_slot(
        fabricated_referral(make_query(qname, msg_id=7), origin, cookie_label), encoded, width
    )
    answer = cookie_slot(
        cookie_name_answer(make_query(encoded, msg_id=7), addresses), encoded, width
    )
    query = make_query(qname, msg_id=9, recursion_desired=rd)
    for label in (cookie_label, other_label):
        name = Name((label + encoded.labels[0][width:], *encoded.labels[1:]))
        if referral is not None:
            reply = referral_from_slot(referral, query, label)
            assert same(reply, fabricated_referral(query, origin, label)) and wire_holds(reply)
        if answer is not None:
            reply = answer_from_slot(answer, 9, name)
            reference = cookie_name_answer(make_query(name, msg_id=9), addresses)
            assert same(reply, reference) and wire_holds(reply)


# -- the guard's three shapes --------------------------------------------------------


def guard_under(origin: Name, key: bytes, hex_digits: int) -> RemoteDnsGuard:
    node = Node(Simulator(seed=1), "guard")
    return RemoteDnsGuard(
        node,
        ANS,
        origin=origin,
        cookie_factory=CookieFactory(key, label_hex_digits=hex_digits),
        cookie_subnet="198.18.0.0/24",
    )


@st.composite
def plain_queries(draw, origin: Name, pool: list):
    """A query for one of ``pool``'s names (0-2 questions, any flags, with
    or without OPT) — a small pool, so that shapes repeat within one guard."""
    qnames = draw(st.lists(st.sampled_from(pool), max_size=2))
    query = Message(
        draw(headers),
        [
            Question(qname, draw(st.sampled_from([RRType.A, RRType.NS])), RRClass.IN)
            for qname in qnames
        ],
    )
    if draw(st.booleans()):
        query.additionals.append(OPT_RR)
    return maybe_frozen(draw, query)


@st.composite
def guarded_zones(draw):
    origin = draw(origins)
    pool = []
    for relative in draw(st.lists(relatives, min_size=1, max_size=3)):
        try:
            pool.append(Name((*relative, *origin.labels)))
        except Exception:
            continue
        # the same name as a DNS-0x20 requester might case it
        pool.append(Name(label.swapcase() for label in pool[-1].labels))
    pool = pool or [origin]
    guard = guard_under(origin, draw(keys), draw(st.sampled_from([2, 8, 16, 32])))
    return guard, pool


@settings(deadline=None)
@given(data=st.data(), zone=guarded_zones(), next_key=keys)
def test_guard_referral_matches_the_reference(data, zone, next_key):
    """Message 2 across sources, flags and a key rotation, one guard."""
    guard, pool = zone
    for step in range(data.draw(st.integers(1, 8))):
        if step == 3:
            guard.rotate_cookie_key(next_key)
        query = data.draw(plain_queries(guard.origin, pool))
        if not query.questions:
            continue  # the guard drops these before challenging
        label = guard.cookies.label_cookie(data.draw(ipv4s))
        reply = guard._referral(query, label)
        assert same(reply, fabricated_referral(query, guard.origin, label))
        assert reply is None or wire_holds(reply)


@settings(deadline=None)
@given(data=st.data(), zone=guarded_zones(), next_key=keys)
def test_guard_cookie_name_answer_matches_the_reference(data, zone, next_key):
    """Message 6: the requester's casing of the cookie name echoed byte for
    byte, glue or a fabricated address, across a key rotation."""
    guard, pool = zone
    glue = data.draw(st.lists(st.builds(a_record, st.just("ns1.com"), ipv4s, ttls), max_size=2))
    for step in range(data.draw(st.integers(1, 8))):
        if step == 3:
            guard.rotate_cookie_key(next_key)
        source = data.draw(ipv4s)
        cookie_qname = encode_cookie_name(
            guard.cookies.label_cookie(source), data.draw(st.sampled_from(pool)), guard.origin
        )
        if cookie_qname is None:
            continue
        if data.draw(st.booleans()):  # a DNS-0x20 requester
            cookie_qname = Name(
                label.swapcase() if data.draw(st.booleans()) else label
                for label in cookie_qname.labels
            )
        addresses = glue or [guard.cookie2_address(source)]
        msg_id = data.draw(st.integers(0, 0xFFFF))
        reply = guard._cookie_name_answer(msg_id, cookie_qname, addresses)
        reference = cookie_name_answer(make_query(cookie_qname, RRType.A, msg_id=msg_id), addresses)
        assert same(reply, reference) and wire_holds(reply)


@settings(deadline=None)
@given(data=st.data(), zone=guarded_zones())
def test_guard_restored_query_matches_the_reference(data, zone):
    guard, pool = zone
    for _ in range(data.draw(st.integers(1, 6))):
        qname = data.draw(st.sampled_from(pool))
        qtype = data.draw(st.sampled_from([RRType.A, RRType.NS]))
        msg_id = data.draw(st.integers(0, 0xFFFF))
        restored = guard._restored_query(qname, qtype, msg_id)
        assert same(restored, make_query(qname, qtype, msg_id=msg_id))
        assert restored._body is not None and wire_holds(restored)


# -- the load tools --------------------------------------------------------------------


def reference_response(ans: AnsSimulator, query: Message) -> Message:
    """``AnsSimulator.respond`` before it kept prototypes."""
    qname = query.question.qname
    response = make_response(query, authoritative=ans.mode == "answer")
    if ans.mode == "answer":
        response.answers.append(a_record(qname, ans.answer_address, ttl=ans.answer_ttl))
    else:
        child = qname if len(qname) <= 1 else Name(qname.labels[-1:])
        ns_name = child.child(b"ns1")
        response.authorities.append(ns_record(child, ns_name, ttl=3600))
        response.additionals.append(a_record(ns_name, ans.referral_target, ttl=3600))
    return response


@settings(deadline=None)
@given(data=st.data(), mode=st.sampled_from(["answer", "referral"]), zone=guarded_zones())
def test_ans_simulator_respond_matches_the_reference(data, mode, zone):
    _, pool = zone
    ans = AnsSimulator(Node(Simulator(seed=1), "ans"), mode=mode)
    for _ in range(data.draw(st.integers(1, 8))):
        query = data.draw(plain_queries(Name.root(), pool))
        if not query.questions:
            continue
        try:
            reference = reference_response(ans, query)
        except Exception:
            continue  # ns1.<63-byte label>: not a name the referral can delegate
        response = ans.respond(query)
        assert same(response, reference) and wire_holds(response)
        # one question is the shape that repeats; anything else is ordinary
        assert (response._body is not None) == (len(query.questions) == 1)


# -- the BIND server ---------------------------------------------------------------

BIND_REQUESTER, BIND_ADDRESS = IPv4Address("10.0.0.1"), IPv4Address("203.0.113.53")


def bind_zone() -> Zone:
    """Every answer shape: an answer, a CNAME chased, a delegation with glue,
    NXDOMAIN, NODATA, a wildcard, and an answer too big for 512 bytes."""
    zone = Zone("foo.com")
    zone.add(soa_record("foo.com"))
    zone.add_a("www.foo.com", "198.51.100.80")
    alias = CNAME(Name.from_text("www.foo.com"))
    zone.add(ResourceRecord(Name.from_text("alias.foo.com"), RRType.CNAME, RRClass.IN, 60, alias))
    zone.delegate("sub.foo.com", "ns1.sub.foo.com", "203.0.113.99")
    zone.add_a("dyn.foo.com", "198.51.100.50")
    zone.add_a("*.dyn.foo.com", "198.51.100.99")
    for index in range(40):
        zone.add_a("big.foo.com", IPv4Address(0xC6336400 + index))
    return zone


BIND_POOL = [
    Name.from_text(text)
    for text in (
        "foo.com", "www.foo.com", "alias.foo.com", "host.sub.foo.com", "ns1.sub.foo.com",
        "nope.foo.com", "a.dyn.foo.com", "big.foo.com", "www.other.org",
    )
]
BIND_POOL += [Name(label.swapcase() for label in name.labels) for name in BIND_POOL]


# what a response echoes of a query's header: its id, opcode and RD bit
bind_headers = st.builds(
    Header,
    msg_id=st.integers(0, 0xFFFF),
    opcode=st.sampled_from([0, 0, 0, 2]),
    rd=st.booleans(),
)


def bind_query(questions: list[Question], header: Header, payload: int | None) -> Message:
    """A query with an OPT advertising ``payload`` bytes, or with none."""
    query = Message(header, questions)
    if payload is not None:
        query.additionals.append(ResourceRecord(Name.root(), RRType.OPT, payload, 0, OPT()))
    return query


@st.composite
def bind_queries(draw):
    """Mostly one question, over every answer shape, standard or not, RD on
    or off, DNS-0x20 casings, and no OPT, one that keeps the 512-byte limit
    or one that lifts it."""
    questions = [
        Question(
            draw(st.sampled_from(BIND_POOL)),
            draw(st.sampled_from([RRType.A, RRType.NS, RRType.MX, RRType.CNAME])),
            draw(st.sampled_from([RRClass.IN, RRClass.CH])),
        )
        for _ in range(draw(st.sampled_from([1, 1, 1, 0, 2])))
    ]
    payload = draw(st.sampled_from([None, MAX_UDP_PAYLOAD, 4096]))
    return maybe_frozen(draw, bind_query(questions, draw(bind_headers), payload))


class Outbox:
    """A socket that keeps what it is asked to send."""

    def __init__(self):
        self.sent = []

    def send(self, message, *args, **kwargs):
        self.sent.append(message)


def bind_server(zone: Zone, ttl_override: int | None, *, slow: bool = False):
    server = AuthoritativeServer(
        Node(Simulator(seed=1), "ans"), [zone], serve_tcp=False, answer_ttl_override=ttl_override
    )
    server._socket = Outbox()
    if slow:  # every query answered the reference way
        server.respond = server._respond
    return server


@settings(deadline=None)
@given(data=st.data(), ttl_override=st.sampled_from([None, 0]))
def test_bind_server_respond_matches_the_reference(data, ttl_override):
    zone = bind_zone()
    server = bind_server(zone, ttl_override)
    reference = bind_server(zone, ttl_override, slow=True)
    for _ in range(data.draw(st.integers(1, 16))):
        query = data.draw(bind_queries())
        if data.draw(st.booleans()):  # the UDP send path, truncation included
            server._serve_udp(query, BIND_REQUESTER, 5353, BIND_ADDRESS)
            reference._serve_udp(query, BIND_REQUESTER, 5353, BIND_ADDRESS)
            response, expected = server._socket.sent[-1], reference._socket.sent[-1]
        else:
            response, expected = server.respond(query), reference.respond(query)
            # one question of a standard query repeats; anything else is ordinary
            standard = query.header.opcode == 0 and len(query.questions) == 1
            assert (response._body is not None) == standard
        assert same(response, expected) and wire_holds(response)
        assert server.stats() == reference.stats()


def test_bind_server_truncates_like_the_reference():
    """The big answer over UDP, a miss then a hit in two casings: truncated
    under the classic limit, whole under a lifted one."""
    zone = bind_zone()
    server, reference = bind_server(zone, None), bind_server(zone, None, slow=True)
    for payload in (None, MAX_UDP_PAYLOAD, 4096):
        for qname in ("big.foo.com", "BIG.foo.com") * 2:
            question = Question(Name.from_text(qname), RRType.A, RRClass.IN)
            query = bind_query([question], Header(msg_id=7), payload)
            server._serve_udp(query, BIND_REQUESTER, 5353, BIND_ADDRESS)
            reference._serve_udp(query, BIND_REQUESTER, 5353, BIND_ADDRESS)
            response, expected = server._socket.sent[-1], reference._socket.sent[-1]
            assert same(response, expected) and wire_holds(response)
            assert response.header.tc == (payload != 4096)
    assert server.stats() == reference.stats()


@given(data=st.data(), zone=guarded_zones())
def test_lrs_simulator_query_matches_make_query(data, zone):
    _, pool = zone
    lrs = LrsSimulator(Node(Simulator(seed=1), "lrs"), ANS)
    for _ in range(data.draw(st.integers(1, 6))):
        qname = data.draw(st.sampled_from(pool))
        qtype = data.draw(st.sampled_from([RRType.A, RRType.NS]))
        msg_id = data.draw(st.integers(0, 0xFFFF))
        query = lrs.query(qname, qtype, msg_id)
        assert same(query, make_query(qname, qtype, msg_id=msg_id))
        assert query._body is not None and wire_holds(query)


def test_a_seeded_walk_keeps_every_table_bounded():
    """4,096 entries, then clear: a name sprayer cannot grow a prototype table."""
    rng = random.Random(21)
    guard = guard_under(Name.root(), bytes(KEY_LENGTH), 8)
    ans = AnsSimulator(Node(Simulator(seed=1), "ans"))
    bind = AuthoritativeServer(Node(Simulator(seed=1), "bind"), [Zone("com")], serve_tcp=False)
    lrs = LrsSimulator(Node(Simulator(seed=1), "lrs"), ANS)
    label = guard.cookies.label_cookie(IPv4Address("10.0.0.1"))
    for index in range(4200):
        query = make_query(Name((f"h{rng.getrandbits(40):x}".encode(), b"com")), msg_id=index)
        assert wire_holds(guard._referral(query, label))
        guard._restored_query(query.question.qname, RRType.A, index)
        ans.respond(query)
        bind.respond(query)
        lrs.query(query.question.qname, RRType.A, index)
    assert 0 < len(guard._slots) <= 4096
    assert 0 < len(guard._restored) <= 4096
    assert 0 < len(ans._responses) <= 4096
    assert 0 < len(bind._responses) <= 4096
    assert 0 < len(lrs._queries) <= 4096
