"""Property-based tests: any message we can build must round-trip the wire."""

import dataclasses
import string
import struct
from ipaddress import IPv4Address
from unittest import mock

from hypothesis import assume, given, settings, strategies as st

from repro.dnswire import (
    A,
    CNAME,
    Header,
    Message,
    MX,
    NS,
    Name,
    Question,
    ResourceRecord,
    RRClass,
    RRType,
    SOA,
    SRV,
    TXT,
)
from repro.dnswire.name import Offsets

_LABEL_ALPHABET = string.ascii_letters + string.digits + "-_"

labels = st.text(alphabet=_LABEL_ALPHABET, min_size=1, max_size=20).map(
    lambda s: s.encode("ascii")
)
# a small pool in both cases, so that drawn names share suffixes (the
# compression table is hit) and differ from each other only by case
pooled_labels = st.sampled_from(
    [b"com", b"COM", b"foo", b"Foo", b"www", b"ns1", b"NS1", b"a", b"A", b"b"]
)
names = st.one_of(
    st.lists(labels, min_size=0, max_size=6), st.lists(pooled_labels, min_size=0, max_size=5)
).map(Name)
ipv4s = st.integers(min_value=0, max_value=2**32 - 1).map(IPv4Address)
ttls = st.integers(min_value=0, max_value=2**31 - 1)


@st.composite
def rdatas(draw):
    kind = draw(st.sampled_from(["A", "NS", "CNAME", "MX", "SRV", "SOA", "TXT"]))
    if kind == "A":
        return RRType.A, A(draw(ipv4s))
    if kind == "NS":
        return RRType.NS, NS(draw(names))
    if kind == "CNAME":
        return RRType.CNAME, CNAME(draw(names))
    if kind == "MX":
        return RRType.MX, MX(draw(st.integers(0, 65535)), draw(names))
    if kind == "SRV":
        port = st.integers(0, 65535)
        return RRType.SRV, SRV(draw(port), draw(port), draw(port), draw(names))
    if kind == "SOA":
        return RRType.SOA, SOA(
            draw(names),
            draw(names),
            draw(st.integers(0, 2**32 - 1)),
            draw(st.integers(0, 2**32 - 1)),
            draw(st.integers(0, 2**32 - 1)),
            draw(st.integers(0, 2**32 - 1)),
            draw(st.integers(0, 2**32 - 1)),
        )
    return RRType.TXT, TXT(
        tuple(draw(st.lists(st.binary(min_size=0, max_size=255), min_size=1, max_size=3)))
    )


@st.composite
def resource_records(draw):
    rtype, rdata = draw(rdatas())
    return ResourceRecord(draw(names), rtype, RRClass.IN, draw(ttls), rdata)


@st.composite
def messages(draw):
    header = Header(
        msg_id=draw(st.integers(0, 0xFFFF)),
        qr=draw(st.booleans()),
        aa=draw(st.booleans()),
        tc=draw(st.booleans()),
        rd=draw(st.booleans()),
        ra=draw(st.booleans()),
        rcode=draw(st.integers(0, 5)),
    )
    msg = Message(header=header)
    msg.questions = draw(
        st.lists(
            names.map(lambda n: Question(n, RRType.A, RRClass.IN)), min_size=0, max_size=2
        )
    )
    msg.answers = draw(st.lists(resource_records(), max_size=4))
    msg.authorities = draw(st.lists(resource_records(), max_size=3))
    msg.additionals = draw(st.lists(resource_records(), max_size=3))
    return msg


@given(name=names)
def test_name_roundtrip_uncompressed(name):
    decoded, end = Name.decode(name.to_wire(), 0)
    assert decoded == name
    assert end == name.wire_length()


@given(first=names, second=names)
def test_name_pair_roundtrip_with_compression(first, second):
    buf = bytearray()
    offsets: Offsets = {}
    first.encode(buf, offsets)
    start = len(buf)
    second.encode(buf, offsets)
    got1, _ = Name.decode(bytes(buf), 0)
    got2, end2 = Name.decode(bytes(buf), start)
    assert got1 == first
    assert got2 == second
    assert end2 == len(buf)


@given(name=names)
def test_compression_never_beats_wire_limit(name):
    """Compressed encoding is never longer than uncompressed."""
    buf = bytearray()
    name.encode(buf, offsets={})
    assert len(buf) <= name.wire_length()


@settings(max_examples=200)
@given(msg=messages())
def test_message_roundtrip_compressed(msg):
    decoded = Message.decode(msg.encode(compress=True))
    assert list(decoded.questions) == msg.questions
    assert list(decoded.answers) == msg.answers
    assert list(decoded.authorities) == msg.authorities
    assert list(decoded.additionals) == msg.additionals
    assert decoded.header.msg_id == msg.header.msg_id
    assert decoded.header.flags_word() == msg.header.flags_word()


@settings(max_examples=100)
@given(msg=messages())
def test_message_roundtrip_uncompressed(msg):
    decoded = Message.decode(msg.encode(compress=False))
    assert list(decoded.answers) == msg.answers
    assert list(decoded.questions) == msg.questions


@settings(max_examples=100)
@given(msg=messages(), max_size=st.integers(min_value=12, max_value=512))
def test_truncated_encoding_respects_max_size(msg, max_size):
    # messages whose question section alone exceeds max_size cannot shrink,
    # so only check the TC invariant when the question fits
    stripped = Message(header=msg.header, questions=msg.questions)
    if len(stripped.encode()) > max_size:
        return
    wire = msg.encode(max_size=max_size)
    assert len(wire) <= max_size
    decoded = Message.decode(wire)
    if len(msg.encode()) > max_size:
        # truncation actually happened: records dropped, TC raised
        assert decoded.header.tc
        assert not decoded.answers
        assert not decoded.authorities
        assert not decoded.additionals


# -- the pre-PR-17 encoder, kept as the oracle ---------------------------------
#
# ``Name.encode`` used to walk suffixes through ``parent()`` (one validated
# ``Name`` per label, the table keyed on ``Name``) and ``_encode_once`` built a
# throw-away ``Header`` through ``dataclasses.replace``.  The bodies below are
# those, verbatim; the live encoder must emit the same bytes for every message.


def _reference_name_encode(self, buffer, offsets=None):
    remaining = self
    while True:
        if offsets is not None and not remaining.is_root():
            target = offsets.get(remaining)
            if target is not None and target < 0x4000:
                buffer += bytes(((0xC0 | (target >> 8)), target & 0xFF))
                return
            if len(buffer) < 0x4000:
                offsets[remaining] = len(buffer)
        if remaining.is_root():
            buffer.append(0)
            return
        label = remaining.labels[0]
        buffer.append(len(label))
        buffer += label
        remaining = remaining.parent()


def reference_encode(msg: Message, compress: bool = True) -> bytes:
    header = dataclasses.replace(
        msg.header,
        qdcount=len(msg.questions),
        ancount=len(msg.answers),
        nscount=len(msg.authorities),
        arcount=len(msg.additionals),
    )
    buffer = bytearray(
        struct.pack(
            "!HHHHHH",
            header.msg_id & 0xFFFF,
            header.flags_word(),
            header.qdcount,
            header.ancount,
            header.nscount,
            header.arcount,
        )
    )
    offsets: dict[Name, int] | None = {} if compress else None
    with mock.patch.object(Name, "encode", _reference_name_encode):
        for question in msg.questions:
            question.encode(buffer, offsets)
        for rr in (*msg.answers, *msg.authorities, *msg.additionals):
            rr.encode(buffer, offsets)
    return bytes(buffer)


def _txt_filler(count: int) -> list[ResourceRecord]:
    """``count`` root-owned TXT records of 260 wire bytes each."""
    rr = ResourceRecord(Name.root(), RRType.TXT, RRClass.IN, 0, TXT.single(b"x" * 248))
    return [rr] * count


@settings(max_examples=300)
@given(msg=messages())
def test_encode_matches_reference_encoder(msg):
    assert msg.encode(compress=True) == reference_encode(msg, compress=True)
    assert msg.encode(compress=False) == reference_encode(msg, compress=False)


@settings(max_examples=100)
@given(msg=messages())
def test_wire_size_is_length_of_encoding(msg):
    size = msg.wire_size()
    assert size == len(msg.encode())
    msg.freeze()
    assert msg.wire_size() == len(msg.encode()) == size


@given(
    first=names.filter(len),
    prefix=st.lists(labels, max_size=2),
    data=st.data(),
)
def test_mixed_case_suffixes_share_one_pointer(first, prefix, data):
    cut = data.draw(st.integers(0, len(first) - 1))
    # the drawn prefix must not extend the match into first's own labels
    assume(not (prefix and cut and prefix[-1].lower() == first.labels[cut - 1].lower()))
    second = Name((*prefix, *(label.swapcase() for label in first.labels[cut:])))
    buf = bytearray(12)
    offsets: Offsets = {}
    first.encode(buf, offsets)
    start = len(buf)
    second.encode(buf, offsets)
    # prefix labels in full, then exactly one pointer at the shared suffix
    target = 12 + sum(len(label) + 1 for label in first.labels[:cut])
    tail = bytes((0xC0 | target >> 8, target & 0xFF))
    assert bytes(buf[start:]) == b"".join(bytes((len(l),)) + l for l in prefix) + tail
    # what decodes is the first occurrence's spelling, not the second's
    decoded, end = Name.decode(bytes(buf), start)
    assert decoded.labels == (*prefix, *first.labels[cut:])
    assert end == len(buf)


@given(owner=names, target=names)
def test_srv_target_is_written_uncompressed_and_unrecorded(owner, target):
    """RFC 2782: the SRV target neither uses nor feeds the compression table."""
    buf = bytearray(12)
    offsets: Offsets = {}
    owner.encode(buf, offsets)
    target.encode(buf, offsets)  # every suffix of the target is now pointable
    recorded, start = dict(offsets), len(buf)
    SRV(1, 2, 3, target).encode(buf, offsets)
    assert bytes(buf[start + 6 :]) == target.to_wire()
    assert offsets == recorded
    fresh: Offsets = {}
    SRV(1, 2, 3, target).encode(bytearray(12), fresh)
    assert fresh == {}


@settings(max_examples=50, deadline=None)
@given(early=names.filter(len), late=names.filter(len))
def test_no_offset_at_or_past_16k_is_recorded_or_targeted(early, late):
    """A 14-bit pointer cannot reach past 0x3FFF: names first seen there are
    written in full every time and never enter the table."""
    assume(early.labels[-1].lower() != late.labels[-1].lower())  # no shared suffix
    msg = Message(questions=[Question(early)])
    msg.answers = _txt_filler(64)  # 12 + question + 64 * 260 > 0x4000
    msg.authorities = [
        ResourceRecord(late, RRType.NS, RRClass.IN, 0, NS(early)),
        ResourceRecord(late, RRType.NS, RRClass.IN, 0, NS(late)),
    ]
    buffer = bytearray(12)
    offsets: Offsets = {}
    msg.question.encode(buffer, offsets)
    for rr in (*msg.answers, *msg.authorities):
        rr.encode(buffer, offsets)
    lowered = tuple(label.lower() for label in early.labels)
    assert set(offsets) == {lowered[i:] for i in range(len(early))}  # nothing of ``late``
    assert max(offsets.values()) < 0x4000 < len(buffer)
    wire = msg.encode()
    assert wire == reference_encode(msg)
    fixed = struct.pack("!HHI", RRType.NS, RRClass.IN, 0)
    assert wire.endswith(
        late.to_wire() + fixed + b"\x00\x02" + b"\xc0\x0c"  # early: pointer to 12
        + late.to_wire() + fixed + struct.pack("!H", late.wire_length()) + late.to_wire()
    )
    assert Message.decode(wire).authorities == msg.authorities


@settings(max_examples=100)
@given(msg=messages())
def test_truncation_to_512_is_header_and_question_with_tc(msg):
    msg.additionals = msg.additionals + _txt_filler(2)  # always past 512 bytes
    tc_before = msg.header.tc
    wire = msg.encode(max_size=512)
    stripped = Message(
        header=dataclasses.replace(msg.header, tc=True), questions=list(msg.questions)
    )
    assert wire == reference_encode(stripped)
    assert msg.header.tc == tc_before  # truncation never edits the message
    decoded = Message.decode(wire)
    assert decoded.header.tc
    assert list(decoded.questions) == msg.questions
    assert (decoded.header.ancount, decoded.header.nscount, decoded.header.arcount) == (0, 0, 0)
