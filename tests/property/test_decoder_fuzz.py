"""Fuzzing the wire decoder: junk input may be rejected, never crash.

The guard parses attacker-controlled bytes at 250K packets/sec; any input
must either decode or raise :class:`DecodeError` — no other exception, no
hang, no state corruption.  ``Message.decode`` keeps a memo of the shapes
it has seen, so every input here is decoded three times (first sighting,
second sighting, later sighting): each time to an equal value or to
``DecodeError``, and bytes that do not decode never enter the memo.

The structure-aware corpus below builds the classic hostile shapes on
purpose — compression loops, pointers forward or past the end, over-long
labels and names, RDLENGTH overruns and counts that promise more records
than there are bytes — rather than waiting for random bytes to find them.
The guards' own codecs over those bytes get the same treatment: the
RFC 7873 option codec behind an OPT RR of any RDATA and RDLENGTH, and the
cookie-name parser over any label, casing and configured cookie width.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.dns import StreamFramer, frame
from repro.dnswire import DecodeError, Message, Name, RRType, make_query
from repro.dnswire.errors import NameError_
from repro.dnswire.message import _decoded
from repro.experiments.testbed import ANS_ADDRESS, GuardTestbed
from repro.guard.core.cookie import LABEL_PREFIX
from repro.guard.core.dns_scheme import CookieName, decode_cookie_name, encode_cookie_name
from repro.guard.rfc7873 import CLIENT_COOKIE_LENGTH, OPTION_COOKIE, extract_edns_cookie
from repro.netsim import DnsPayload, Packet, UdpDatagram
from tests.guard.test_rfc7873 import ANS_IP, build_testbed

QUESTION_TAIL = b"\x00\x01\x00\x01"  # QTYPE A, QCLASS IN


def decode_thrice(wire: bytes) -> Message | None:
    """The decoded message, the same three times over, or ``None`` if every
    sighting raised ``DecodeError`` and the memo never saw the wire."""
    outcomes = []
    for _ in range(3):
        try:
            outcomes.append(Message.decode(wire))
        except DecodeError:
            outcomes.append(None)
    assert outcomes[0] == outcomes[1] == outcomes[2]
    if outcomes[0] is None:
        assert bytes(wire[2:]) not in _decoded
    return outcomes[0]


def header(qd=1, an=0, ns=0, ar=0, msg_id=0x1234, flags=0x0100) -> bytes:
    return struct.pack("!HHHHHH", msg_id, flags, qd, an, ns, ar)


def uncompressed(labels) -> bytes:
    return b"".join(bytes((len(label),)) + label for label in labels) + b"\x00"


def pointer(target: int) -> bytes:
    return bytes((0xC0 | target >> 8, target & 0xFF))


labels = st.lists(st.binary(min_size=1, max_size=20), min_size=1, max_size=4)
ids = st.integers(0, 0xFFFF)


# -- the corpus ----------------------------------------------------------------------


@st.composite
def compression_loops(draw):
    """Labels, then a pointer back to one of them: the walk comes round."""
    prefix = draw(labels)
    starts = [12]
    for label in prefix[:-1]:
        starts.append(starts[-1] + len(label) + 1)
    name = uncompressed(prefix)[:-1] + pointer(draw(st.sampled_from(starts)))
    return header(msg_id=draw(ids)) + name + QUESTION_TAIL


@st.composite
def pointers_past_the_end(draw):
    """A pointer at or beyond the last byte, or one cut in half."""
    prefix = uncompressed(draw(labels))[:-1]
    if draw(st.booleans()):
        return header(msg_id=draw(ids)) + prefix + bytes((draw(st.integers(0xC0, 0xFF)),))
    size = 12 + len(prefix) + 2 + len(QUESTION_TAIL)
    target = draw(st.integers(size, 0x3FFF))
    return header(msg_id=draw(ids)) + prefix + pointer(target) + QUESTION_TAIL


@st.composite
def forward_pointers(draw):
    """The question's name points at a well-formed name placed after it."""
    prefix = uncompressed(draw(labels))[:-1] if draw(st.booleans()) else b""
    target = 12 + len(prefix) + 2 + len(QUESTION_TAIL)
    return (
        header(msg_id=draw(ids)) + prefix + pointer(target) + QUESTION_TAIL
        + uncompressed(draw(labels))
    )


@st.composite
def long_labels(draw):
    """A length byte of 64-191: a 64-byte label, or a reserved label type."""
    length = draw(st.integers(64, 0xBF))
    return header(msg_id=draw(ids)) + bytes((length,)) + b"x" * length + b"\x00" + QUESTION_TAIL


@st.composite
def long_names(draw):
    """A name of 256+ wire bytes, spelled out or completed by a pointer to
    a name that was legal on its own."""
    lengths = draw(st.lists(st.integers(1, 63), min_size=1, max_size=12))
    while sum(n + 1 for n in lengths) + 1 < 256:
        lengths.append(63)
    name = [b"n" * n for n in lengths]
    if not draw(st.booleans()):
        return header(msg_id=draw(ids)) + uncompressed(name) + QUESTION_TAIL
    # split it: the tail is the first question (<= 255 bytes on its own),
    # the head the second, ending in a pointer to the first
    cut = next(i for i in range(len(name)) if sum(len(l) + 1 for l in name[i:]) + 1 <= 255)
    first = uncompressed(name[cut:]) + QUESTION_TAIL
    second = uncompressed(name[:cut])[:-1] + pointer(12) + QUESTION_TAIL
    return header(qd=2, msg_id=draw(ids)) + first + second


@st.composite
def rdlength_overruns(draw):
    """An answer whose RDLENGTH reaches past the end of the message."""
    rdata = draw(st.binary(max_size=16))
    rdlength = draw(st.integers(len(rdata) + 1, 0xFFFF))
    answer = pointer(12) + struct.pack("!HHIH", 1, 1, 60, rdlength) + rdata
    return (
        header(qd=1, an=1, flags=0x8100, msg_id=draw(ids)) + uncompressed(draw(labels))
        + QUESTION_TAIL + answer
    )


@st.composite
def count_overruns(draw):
    """A real query whose header promises records that are not there."""
    wire = bytearray(make_query("www.foo.com", msg_id=draw(ids)).encode())
    section = draw(st.integers(0, 3))
    (count,) = struct.unpack_from("!H", wire, 4 + 2 * section)
    struct.pack_into("!H", wire, 4 + 2 * section, draw(st.integers(count + 1, 0xFFFF)))
    return bytes(wire)


HOSTILE = {
    "compression_loop": compression_loops(),
    "pointer_past_the_end": pointers_past_the_end(),
    "forward_pointer": forward_pointers(),
    "long_label": long_labels(),
    "long_name": long_names(),
    "rdlength_overrun": rdlength_overruns(),
    "count_overrun": count_overruns(),
}

#: One fixed specimen of each kind, for the live proxy.
SPECIMENS = {
    "compression_loop": header() + b"\x01a\x01b" + pointer(12) + QUESTION_TAIL,
    "pointer_past_the_end": header() + b"\x01a" + pointer(0x3FFF) + QUESTION_TAIL,
    "forward_pointer": header() + pointer(18) + QUESTION_TAIL + b"\x01a\x00",
    "long_label": header() + b"\x40" + b"x" * 64 + b"\x00" + QUESTION_TAIL,
    "long_name": header() + uncompressed([b"n" * 63] * 3 + [b"n" * 62]) + QUESTION_TAIL,
    "rdlength_overrun": header(an=1, flags=0x8100) + b"\x01a\x00" + QUESTION_TAIL
    + pointer(12) + struct.pack("!HHIH", 1, 1, 60, 5) + b"\x01\x02\x03\x04",
    "count_overrun": header(qd=2) + b"\x01a\x00" + QUESTION_TAIL,
}


@pytest.mark.parametrize("kind", sorted(HOSTILE))
@settings(max_examples=100)
@given(data=st.data())
def test_hostile_messages_raise_on_every_sighting(kind, data):
    assert decode_thrice(data.draw(HOSTILE[kind])) is None


@pytest.mark.parametrize("kind", sorted(SPECIMENS))
def test_each_specimen_is_hostile(kind):
    assert decode_thrice(SPECIMENS[kind]) is None


def test_a_255_byte_name_is_the_longest_that_decodes():
    longest = uncompressed([b"n" * 63] * 3 + [b"n" * 61])
    assert len(longest) == 255
    message = decode_thrice(header() + longest + QUESTION_TAIL)
    assert message is not None and message.question.qname.wire_length() == 255
    assert decode_thrice(SPECIMENS["long_name"]) is None  # one byte more


@settings(max_examples=100)
@given(data=st.data(), kind=st.sampled_from(sorted(HOSTILE)))
def test_hostile_names_raise_at_the_name_decoder(data, kind):
    """The question's name, read by ``Name.decode`` where the message puts it."""
    if kind in ("rdlength_overrun", "count_overrun"):
        return  # the names in these are fine; the records are not
    wire = data.draw(HOSTILE[kind])
    offset = 12
    if wire[5] == 2:  # a split long name: the legal first question, then the bad one
        offset = Name.decode(wire, offset)[1] + len(QUESTION_TAIL)
    for _ in range(3):
        with pytest.raises(DecodeError):
            Name.decode(wire, offset)


@settings(max_examples=100)
@given(
    data=st.data(),
    kind=st.sampled_from(sorted(HOSTILE)),
    cuts=st.lists(st.integers(0, 600), max_size=4),
)
def test_hostile_frames_raise_once_the_frame_is_whole(data, kind, cuts):
    """Fed in any chunking, a framer yields nothing for a hostile frame's
    partial bytes and raises ``DecodeError`` on the chunk that completes it."""
    wire = data.draw(HOSTILE[kind])
    stream = struct.pack("!H", len(wire)) + wire
    bounds = sorted({0, len(stream), *(cut % len(stream) for cut in cuts)})
    for _ in range(3):
        framer = StreamFramer()
        for start, end in zip(bounds, bounds[1:-1]):
            assert framer.feed(stream[start:end]) == []
        with pytest.raises(DecodeError):
            framer.feed(stream[bounds[-2] :])
    assert bytes(wire[2:]) not in _decoded


@pytest.mark.parametrize("kind", sorted(SPECIMENS))
def test_a_hostile_stream_aborts_only_its_own_proxy_connection(kind):
    bed = GuardTestbed(ans="simulator", ans_mode="answer", guard_policy="tcp")
    hostile_client, good_client = bed.add_client("hostile"), bed.add_client("good")
    closed, answers = [], []
    wire = SPECIMENS[kind]
    hostile_client.tcp.connect(
        ANS_ADDRESS, 53,
        on_established=lambda c: c.send(struct.pack("!H", len(wire)) + wire),
        on_close=lambda c, error: closed.append(error),
    )
    framer = StreamFramer()

    def on_data(conn, data):
        answers.extend(framer.feed(data))
        if answers:
            conn.close()

    good_client.tcp.connect(
        ANS_ADDRESS, 53,
        on_established=lambda c: c.send(frame(make_query("www.foo.com", msg_id=77))),
        on_data=on_data,
    )
    bed.run(1.0)
    proxy = bed.guard.tcp_proxy
    assert closed == [True] and proxy.malformed_streams == 1
    assert [m.header.msg_id for m in answers] == [77] and proxy.requests_proxied == 1


# -- random bytes --------------------------------------------------------------------


@settings(max_examples=500)
@given(data=st.binary(min_size=0, max_size=128))
def test_random_bytes_never_crash_decoder(data):
    decode_thrice(data)


@settings(max_examples=300)
@given(data=st.binary(min_size=0, max_size=64))
def test_random_bytes_never_crash_name_decoder(data):
    try:
        Name.decode(data, 0)
    except DecodeError:
        pass


@settings(max_examples=300)
@given(
    flips=st.lists(st.integers(min_value=0, max_value=28), min_size=1, max_size=6),
    values=st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=6),
)
def test_bitflipped_real_messages_never_crash(flips, values):
    """Corrupt a real query at random offsets; decode or DecodeError."""
    wire = bytearray(make_query("www.foo.com", msg_id=7).encode())
    for offset, value in zip(flips, values):
        wire[offset % len(wire)] = value
    decode_thrice(bytes(wire))


@settings(max_examples=200)
@given(cut=st.integers(min_value=0, max_value=28))
def test_truncated_real_messages_never_crash(cut):
    wire = make_query("www.foo.com", msg_id=9).encode()
    decode_thrice(wire[:cut])


# -- the guards' codecs over hostile bytes -------------------------------------------


def opt_query(rdata: bytes, *, rdlength: int | None = None, msg_id: int = 0x1234) -> bytes:
    """A one-question query whose one additional is an OPT RR carrying
    ``rdata`` under a declared RDLENGTH (by default, the true one)."""
    rr = b"\x00" + struct.pack(
        "!HHIH", RRType.OPT, 4096, 0, len(rdata) if rdlength is None else rdlength
    )
    return header(ar=1, msg_id=msg_id) + b"\x01a\x00" + QUESTION_TAIL + rr + rdata


@st.composite
def edns_options(draw):
    """One option as the RFC 7873 codec reads it: mostly COOKIE, with a
    payload of any length around the legal 8 and 24-40, under a length
    field that may lie."""
    foreign = draw(st.integers(0, 3)) == 0
    code = draw(st.integers(0, 0xFFFF)) if foreign else OPTION_COOKIE
    payload = draw(st.binary(max_size=48))
    lies = draw(st.integers(0, 3)) == 0
    length = draw(st.integers(0, 64)) if lies else len(payload)
    return struct.pack("!HH", code, length) + payload


@st.composite
def opt_rdatas(draw):
    """OPT RDATA: well-formed-looking options, a ragged tail, or junk."""
    if draw(st.booleans()):
        rdata = b"".join(draw(st.lists(edns_options(), max_size=3)))
        ragged = draw(st.integers(0, 3)) == 0
        return rdata + (draw(st.binary(min_size=1, max_size=3)) if ragged else b"")
    return draw(st.binary(max_size=64))


@settings(max_examples=300)
@given(
    rdata=opt_rdatas(),
    rdlength=st.one_of(st.none(), st.none(), st.integers(0, 80), st.integers(0, 0xFFFF)),
    msg_id=ids,
)
def test_hostile_opt_records_never_crash_the_cookie_codec(rdata, rdlength, msg_id):
    message = decode_thrice(opt_query(rdata, rdlength=rdlength, msg_id=msg_id))
    if message is None:
        return
    cookie = extract_edns_cookie(message)
    if cookie is not None:
        client_cookie, server_cookie = cookie
        assert len(client_cookie) == CLIENT_COOKIE_LENGTH
        assert isinstance(server_cookie, bytes)


ORIGINS = [Name.root(), Name.from_text("com."), Name.from_text("foo.com.")]
cookie_lengths = st.integers(0, 70)


def casing(label: bytes, flips: list[bool]) -> bytes:
    """``label`` under a DNS-0x20 resolver's random letter casing."""
    return bytes(
        byte ^ 0x20 if bytes((byte,)).isalpha() and flip else byte
        for byte, flip in zip(label, flips + [False] * len(label))
    )


@st.composite
def cookie_labels(draw):
    """A first label that is a cookie name's, nearly one, or anything at all."""
    shape = draw(st.sampled_from(["marker", "marker+dots", "any"]))
    if shape == "any":
        return draw(st.binary(min_size=1, max_size=63))
    label = LABEL_PREFIX + draw(st.binary(max_size=40))
    if shape == "marker+dots":
        label += b".".join(draw(st.lists(st.binary(max_size=6), max_size=4)))
    return label[:63]


@settings(max_examples=300)
@given(
    label=cookie_labels(),
    flips=st.lists(st.booleans(), max_size=63),
    origin=st.sampled_from(ORIGINS),
    cookie_length=cookie_lengths,
)
def test_hostile_cookie_names_parse_or_return_none(label, flips, origin, cookie_length):
    try:
        qname = Name((casing(label, flips), *origin.labels))
    except NameError_:
        return  # too long for a name once under the origin: never on the wire
    parsed = decode_cookie_name(qname, origin, cookie_length=cookie_length)
    if parsed is not None:
        assert isinstance(parsed, CookieName)
        assert parsed.cookie_label == qname.labels[0][:cookie_length]
        assert parsed.original_qname.is_subdomain_of(origin)


@settings(max_examples=200)
@given(
    relative=st.lists(st.binary(min_size=1, max_size=10), max_size=3),
    flips=st.lists(st.booleans(), max_size=63),
    origin=st.sampled_from(ORIGINS),
    cookie_length=cookie_lengths,
)
def test_any_casing_of_an_encoded_cookie_name_restores_its_question(
    relative, flips, origin, cookie_length
):
    cookie = (LABEL_PREFIX + b"0" * cookie_length)[: max(cookie_length, 2)]
    try:
        original = Name((*relative, *origin.labels))
        encoded = encode_cookie_name(cookie, original, origin)
    except NameError_:
        return
    if encoded is None:
        return  # does not fit in one label, or holds a dot of its own
    cased = Name((casing(encoded.labels[0], flips), *encoded.labels[1:]))
    parsed = decode_cookie_name(cased, origin, cookie_length=len(cookie))
    assert parsed is not None and parsed.original_qname == original


#: Queries whose OPT RR decodes but whose COOKIE option is not one the guard
#: minted: too short, a server cookie of the wrong width, over-long, absent
#: behind another option code, or two COOKIE options at once.
MALFORMED_OPT = {
    "short_client_cookie": struct.pack("!HH", OPTION_COOKIE, 3) + b"abc",
    "odd_server_cookie": struct.pack("!HH", OPTION_COOKIE, 13) + b"c" * 13,
    "oversize_cookie": struct.pack("!HH", OPTION_COOKIE, 48) + b"c" * 48,
    "empty_rdata": b"",
    "other_option_only": struct.pack("!HH", 3, 8) + b"n" * 8,
    "two_cookies": (struct.pack("!HH", OPTION_COOKIE, 24) + b"c" * 24) * 2,
}


@pytest.mark.parametrize("kind", sorted(MALFORMED_OPT))
def test_a_malformed_opt_query_through_a_live_cookie_guard_never_raises(kind):
    """Sent around the client shim, the query is dropped at the guard, and
    no event of the run raises out of ``Simulator.step``."""
    query = decode_thrice(opt_query(MALFORMED_OPT[kind]))
    assert query is not None
    sim, _client, _shim, guard, ans, attacker = build_testbed()
    attacker.send(
        Packet(src=attacker.addresses[0], dst=ANS_IP,
               segment=UdpDatagram(40000, 53, DnsPayload(query)))
    )
    while sim.step():
        pass
    assert ans.requests_served == 0
    assert guard.no_cookie_drops + guard.invalid_drops + guard.cookies_granted == 1
