"""Property: a derived wire memo is the encoder's bytes, or it is absent.

Every producer that sends one message shape many times keeps a frozen
prototype and derives each packet's message from it — a re-head, the
modified-DNS cookie record appended or removed, the label cookie spliced
into a fabricated reply.  Each derivation must return either an unfrozen
message or one whose ``_wire == _encode_once(True)``, and the message it
returns must ``==`` the one the slow path builds.  The slow paths live on
in ``src`` (``make_query``, ``attach_cookie``/``strip_cookie`` on a copy,
``fabricated_referral``, ``cookie_name_answer``); the ANS simulator's is
written out below.
"""

import random
from ipaddress import IPv4Address

from hypothesis import given, settings, strategies as st

from repro.dns import AnsSimulator, LrsSimulator
from repro.dnswire import (
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
from repro.guard.core.cookie import KEY_LENGTH
from repro.netsim import Node, Simulator
from tests.property.test_wire_roundtrip import ipv4s, messages, ttls

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
    return message._wire is None or message._wire == message._encode_once(True)


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
    assert (derived._wire is None) == (message._wire is None)
    # the derived message owns its lists: editing it cannot reach the source
    derived.questions.clear()
    derived.additionals.clear()
    assert wire_holds(message)


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
    assert (stamped._wire is None) == (message._wire is None)
    stripped = without_cookie(stamped)
    assert same(stripped, message) and (stripped._wire is None) == (message._wire is None)
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
        assert restored._wire == restored._encode_once(True)


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
        assert (response._wire is not None) == (len(query.questions) == 1)


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
        assert query._wire == query._encode_once(True)


def test_a_seeded_walk_keeps_every_table_bounded():
    """4,096 entries, then clear: a name sprayer cannot grow a prototype table."""
    rng = random.Random(21)
    guard = guard_under(Name.root(), bytes(KEY_LENGTH), 8)
    ans = AnsSimulator(Node(Simulator(seed=1), "ans"))
    lrs = LrsSimulator(Node(Simulator(seed=1), "lrs"), ANS)
    label = guard.cookies.label_cookie(IPv4Address("10.0.0.1"))
    for index in range(4200):
        query = make_query(Name((f"h{rng.getrandbits(40):x}".encode(), b"com")), msg_id=index)
        assert wire_holds(guard._referral(query, label))
        guard._restored_query(query.question.qname, RRType.A, index)
        ans.respond(query)
        lrs.query(query.question.qname, RRType.A, index)
    assert 0 < len(guard._slots) <= 4096
    assert 0 < len(guard._restored) <= 4096
    assert 0 < len(ans._responses) <= 4096
    assert 0 < len(lrs._queries) <= 4096
