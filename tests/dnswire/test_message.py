"""Unit tests for the message codec: headers, records, truncation."""

import dataclasses
import struct
from ipaddress import IPv4Address

import pytest

from repro.dnswire import (
    A,
    CNAME,
    DecodeError,
    Header,
    MAX_UDP_PAYLOAD,
    Message,
    MX,
    NS,
    Name,
    Opaque,
    PROTOTYPE_CAP,
    Question,
    Rcode,
    ResourceRecord,
    RRClass,
    RRType,
    SOA,
    TXT,
    a_record,
    attach_cookie,
    make_query,
    make_response,
    make_truncated_response,
    ns_record,
    soa_record,
    with_cookie,
    without_cookie,
)
from repro.dns import AnsSimulator, AuthoritativeServer, LrsSimulator, Zone
from repro.dnswire.message import _decoded
from repro.guard.core.dns_scheme import (
    cookie_slot,
    encode_cookie_name,
    fabricated_referral,
    referral_from_slot,
)
from repro.netsim import Node, Simulator


class TestHeader:
    def test_flag_round_trip(self):
        header = Header(msg_id=0x1234, qr=True, aa=True, tc=True, rd=True, ra=True,
                        rcode=Rcode.NXDOMAIN)
        decoded, end = Header.decode(header.encode())
        assert end == 12
        assert decoded == header

    def test_short_buffer_rejected(self):
        with pytest.raises(DecodeError):
            Header.decode(b"\x00" * 11)

    def test_flags_word_bits(self):
        assert Header(qr=True).flags_word() == 0x8000
        assert Header(tc=True).flags_word() == 0x0200
        assert Header(rd=True).flags_word() == 0x0100


class TestMessageRoundTrip:
    def test_query_round_trip(self):
        query = make_query("www.foo.com", RRType.A, msg_id=7, recursion_desired=True)
        decoded = Message.decode(query.encode())
        assert decoded.header.msg_id == 7
        assert decoded.header.rd
        assert not decoded.header.qr
        assert decoded.question.qname == Name.from_text("www.foo.com")
        assert decoded.question.qtype == RRType.A

    def test_response_with_all_sections(self):
        query = make_query("www.foo.com", msg_id=9)
        response = make_response(query, authoritative=True)
        response.answers.append(a_record("www.foo.com", "10.0.0.1", ttl=60))
        response.authorities.append(ns_record("foo.com", "ns1.foo.com"))
        response.additionals.append(a_record("ns1.foo.com", "10.0.0.53"))
        decoded = Message.decode(response.encode())
        assert decoded.header.aa and decoded.header.qr
        assert decoded.answers[0].rdata == A(IPv4Address("10.0.0.1"))
        assert decoded.answers[0].ttl == 60
        assert decoded.authorities[0].rdata == NS(Name.from_text("ns1.foo.com"))
        assert decoded.additionals[0].rdata == A(IPv4Address("10.0.0.53"))

    def test_compression_reduces_size(self):
        query = make_query("www.foo.com")
        response = make_response(query)
        for i in range(5):
            response.answers.append(a_record("www.foo.com", f"10.0.0.{i + 1}"))
        assert len(response.encode(compress=True)) < len(response.encode(compress=False))
        # both forms decode identically
        assert (
            Message.decode(response.encode(compress=True)).answers
            == Message.decode(response.encode(compress=False)).answers
        )

    def test_soa_round_trip(self):
        rr = soa_record("foo.com", serial=42)
        query = make_query("foo.com", RRType.SOA)
        response = make_response(query)
        response.authorities.append(rr)
        decoded = Message.decode(response.encode())
        soa = decoded.authorities[0].rdata
        assert isinstance(soa, SOA)
        assert soa.serial == 42
        assert soa.mname == Name.from_text("ns1.invalid.")

    def test_txt_round_trip(self):
        rr = ResourceRecord(Name.root(), RRType.TXT, RRClass.IN, 0, TXT.single(b"\x01" * 16))
        query = make_query(".", RRType.TXT)
        response = make_response(query)
        response.additionals.append(rr)
        decoded = Message.decode(response.encode())
        assert decoded.additionals[0].rdata.payload == b"\x01" * 16

    def test_txt_multiple_strings(self):
        txt = TXT((b"hello", b"world"))
        rr = ResourceRecord(Name.from_text("t.com"), RRType.TXT, RRClass.IN, 5, txt)
        msg = Message()
        msg.answers.append(rr)
        decoded = Message.decode(msg.encode())
        assert decoded.answers[0].rdata.strings == (b"hello", b"world")

    def test_mx_round_trip(self):
        rr = ResourceRecord(
            Name.from_text("foo.com"), RRType.MX, RRClass.IN, 300,
            MX(10, Name.from_text("mail.foo.com")),
        )
        msg = Message()
        msg.answers.append(rr)
        decoded = Message.decode(msg.encode())
        assert decoded.answers[0].rdata == MX(10, Name.from_text("mail.foo.com"))

    def test_cname_round_trip(self):
        rr = ResourceRecord(
            Name.from_text("alias.foo.com"), RRType.CNAME, RRClass.IN, 60,
            CNAME(Name.from_text("real.foo.com")),
        )
        msg = Message()
        msg.answers.append(rr)
        decoded = Message.decode(msg.encode())
        assert decoded.answers[0].rdata == CNAME(Name.from_text("real.foo.com"))

    def test_unknown_type_preserved_as_opaque(self):
        rr = ResourceRecord(Name.from_text("x.com"), 999, RRClass.IN, 1, Opaque(b"\xde\xad"))
        msg = Message()
        msg.answers.append(rr)
        decoded = Message.decode(msg.encode())
        assert decoded.answers[0].rdata == Opaque(b"\xde\xad")
        assert decoded.answers[0].rtype == 999


class TestTruncation:
    def _big_response(self) -> Message:
        query = make_query("big.example.com", RRType.TXT)
        response = make_response(query)
        for _ in range(10):
            response.answers.append(
                ResourceRecord(
                    Name.from_text("big.example.com"), RRType.TXT, RRClass.IN, 60,
                    TXT.single(b"x" * 200),
                )
            )
        return response

    def test_oversize_response_truncated(self):
        wire = self._big_response().encode(max_size=MAX_UDP_PAYLOAD)
        assert len(wire) <= MAX_UDP_PAYLOAD
        decoded = Message.decode(wire)
        assert decoded.header.tc
        assert decoded.answers == []
        assert decoded.question.qname == Name.from_text("big.example.com")

    def test_fitting_response_not_truncated(self):
        query = make_query("small.com")
        response = make_response(query)
        response.answers.append(a_record("small.com", "1.2.3.4"))
        decoded = Message.decode(response.encode(max_size=MAX_UDP_PAYLOAD))
        assert not decoded.header.tc
        assert len(decoded.answers) == 1

    def test_make_truncated_response_helper(self):
        query = make_query("www.foo.com", msg_id=77)
        tc = make_truncated_response(query)
        assert tc.header.tc and tc.header.qr
        assert tc.header.msg_id == 77
        assert tc.wire_size() <= query.wire_size() + 4  # no amplification to speak of


class TestEncodeBudget:
    def test_referral_with_glue_builds_no_name_and_no_header(self, monkeypatch):
        """Sizing a packet is one encode: it must not construct (and
        re-validate) a ``Name`` per label or a throw-away ``Header``."""
        response = make_response(make_query("www.foo.com", msg_id=9))
        for host, address in (("ns1.foo.com", "192.0.2.1"), ("ns2.foo.com", "192.0.2.2")):
            response.authorities.append(ns_record("foo.com", host))
            response.additionals.append(a_record(host, address))
        calls = {"Name": 0, "replace": 0}
        name_init, replace = Name.__init__, dataclasses.replace

        def counting_init(self, labels=()):
            calls["Name"] += 1
            name_init(self, labels)

        def counting_replace(obj, **changes):
            calls["replace"] += 1
            return replace(obj, **changes)

        monkeypatch.setattr(Name, "__init__", counting_init)
        monkeypatch.setattr(dataclasses, "replace", counting_replace)
        wire = response.encode()
        assert (response.wire_size(), len(wire), len(response.encode(compress=False))) == (
            97, 97, 147,
        )
        assert calls == {"Name": 0, "replace": 0}
        assert Message._parse(wire).additionals == response.additionals
        assert calls["Name"] > 0  # the counter was live


class TestDecodeBudget:
    """``Message.decode`` parses a shape (the wire after the message id) on
    its first two sightings, encodes it once on the second to verify it,
    and serves every later sighting from the memo."""

    @pytest.fixture
    def counted(self, monkeypatch):
        _decoded.clear()
        calls = {"parse": 0, "encode": 0}
        parse, encode_once = Message._parse.__func__, Message._encode_once

        def counting_parse(cls, data):
            calls["parse"] += 1
            return parse(cls, data)

        def counting_encode(self, compress):
            calls["encode"] += 1
            return encode_once(self, compress)

        monkeypatch.setattr(Message, "_parse", classmethod(counting_parse))
        monkeypatch.setattr(Message, "_encode_once", counting_encode)
        yield calls
        _decoded.clear()

    def test_one_shape_under_fresh_ids_is_parsed_twice_and_encoded_once(self, counted):
        wire = make_response(make_query("www.foo.com", msg_id=1)).freeze().encode()
        counted["encode"] = 0
        decoded = [
            Message.decode(struct.pack("!H", msg_id) + wire[2:])
            for msg_id in range(100)
        ]
        assert counted == {"parse": 2, "encode": 1}
        assert [m.header.msg_id for m in decoded] == list(range(100))
        assert decoded[0]._body is None
        prototype = decoded[1]
        assert prototype._body is not None
        # every later sighting is the prototype's tuples and memo, re-headed
        for m in decoded[2:]:
            assert m.questions is prototype.questions and m.answers is prototype.answers
            assert m._body is prototype._body
        assert all(m.encode() == m._encode_once(True) for m in decoded[1:])

    def test_fresh_shapes_are_parsed_once_each_and_never_encoded(self, counted):
        wires = [make_query(f"h{i}.foo.com", msg_id=i).encode() for i in range(100)]
        counted["encode"] = 0
        for wire in wires:
            assert Message.decode(wire)._body is None
        assert counted == {"parse": 100, "encode": 0}

    def test_the_memo_never_exceeds_the_prototype_cap(self, counted):
        for i in range(PROTOTYPE_CAP + 200):
            wire = make_query(f"h{i}.foo.com", msg_id=i).encode()
            for _ in range(3):
                Message.decode(wire)
            assert 0 < len(_decoded) <= PROTOTYPE_CAP
        assert len(_decoded) == 200  # flushed whole once, at the cap


class TestCopy:
    def test_copy_of_a_frozen_message_is_editable(self):
        """``copy.copy`` carried the frozen wire memo into the copy, which
        then reported the old size and encoded the old bytes."""
        query = make_query("www.foo.com.", msg_id=7).freeze()
        stamped = query.copy()
        attach_cookie(stamped, b"\x01" * 16)
        assert (query.wire_size(), stamped.wire_size()) == (29, 57)
        assert list(Message.decode(stamped.encode()).additionals) == stamped.additionals
        assert query.additionals == () and not Message.decode(query.encode()).additionals

    def test_copy_shares_records_and_owns_its_sections(self):
        response = make_response(make_query("a.com"))
        response.answers.append(a_record("a.com", "1.1.1.1"))
        clone = response.copy()
        assert clone == response and clone.header is response.header
        assert clone.answers[0] is response.answers[0]
        clone.answers.clear()
        clone.questions.clear()
        assert len(response.answers) == len(response.questions) == 1


def _frozen_response(msg_id: int = 1) -> Message:
    response = make_response(make_query("www.foo.com", msg_id=msg_id))
    response.answers.append(a_record("www.foo.com", "192.0.2.1"))
    response.authorities.append(ns_record("foo.com", "ns1.foo.com"))
    response.additionals.append(a_record("ns1.foo.com", "192.0.2.53"))
    return response.freeze()


def _frozen_by_freeze():
    return _frozen_response(), None


def _frozen_by_freeze_as():
    sections = _frozen_response().sections_wire
    message = make_response(make_query("www.foo.com", msg_id=2))
    message.answers.append(a_record("www.foo.com", "192.0.2.1"))
    message.authorities.append(ns_record("foo.com", "ns1.foo.com"))
    message.additionals.append(a_record("ns1.foo.com", "192.0.2.53"))
    return message.freeze_as(sections), None


def _frozen_by_re_head():
    prototype = _frozen_response()
    return prototype.with_header(Header(msg_id=2, qr=True, aa=True)), prototype


def _frozen_by_third_decode():
    wire = _frozen_response().encode()
    key = wire[2:]
    _decoded.pop(key, None)
    for msg_id in (1, 2):
        Message.decode(struct.pack("!H", msg_id) + key)
    return Message.decode(struct.pack("!H", 3) + key), _decoded[key]


def _frozen_by_with_cookie_hit():
    query = make_query("www.foo.com", msg_id=1).freeze()
    prototype = with_cookie(query, SEAL_COOKIE)
    return with_cookie(query.with_header(Header(msg_id=2)), SEAL_COOKIE), prototype


def _frozen_by_without_cookie_hit():
    stamped = with_cookie(make_query("www.foo.com", msg_id=1).freeze(), SEAL_COOKIE)
    prototype = without_cookie(stamped)
    return without_cookie(stamped.with_header(Header(msg_id=2))), prototype


def _slot(origin: Name, qname: Name):
    encoded = encode_cookie_name(SEAL_LABEL, qname, origin)
    reply = fabricated_referral(make_query(qname, msg_id=1), origin, SEAL_LABEL)
    return cookie_slot(reply, encoded, len(SEAL_LABEL))


def _frozen_by_slot_own_requester():
    slot = _slot(Name.root(), Name.from_text("www.foo.com"))
    query = make_query("www.foo.com", msg_id=2)
    return referral_from_slot(slot, query, SEAL_LABEL), slot.reply


def _frozen_by_slot_other_requester():
    slot = _slot(Name.root(), Name.from_text("www.foo.com"))
    query = make_query("www.foo.com", msg_id=2)
    return referral_from_slot(slot, query, b"PR" + b"1" * (len(SEAL_LABEL) - 2)), None


def _frozen_by_ans_simulator():
    ans = AnsSimulator(Node(Simulator(seed=1), "ans"))
    prototype = ans.respond(make_query("www.foo.com", msg_id=1))
    return ans.respond(make_query("www.foo.com", msg_id=2)), prototype


def _frozen_by_authoritative_server():
    zone = Zone("foo.com")
    zone.add_a("www.foo.com", "192.0.2.1")
    server = AuthoritativeServer(Node(Simulator(seed=1), "ans"), [zone], serve_tcp=False)
    prototype = server.respond(make_query("www.foo.com", msg_id=1))
    return server.respond(make_query("www.foo.com", msg_id=2)), prototype


def _frozen_by_lrs_simulator():
    lrs = LrsSimulator(Node(Simulator(seed=1), "lrs"), IPv4Address("192.0.2.53"))
    prototype = lrs.query(Name.from_text("www.foo.com"), RRType.A, 1)
    return lrs.query(Name.from_text("www.foo.com"), RRType.A, 2), prototype


SEAL_COOKIE = bytes(range(16))
SEAL_LABEL = b"PR" + b"0" * 8
SECTIONS = ("questions", "answers", "authorities", "additionals")

#: every way a message becomes frozen: build() -> (message, the prototype
#: it was re-headed from, or None when it is a prototype itself)
FROZEN_SOURCES = {
    "freeze": _frozen_by_freeze,
    "freeze_as": _frozen_by_freeze_as,
    "re-head": _frozen_by_re_head,
    "decode, third sighting": _frozen_by_third_decode,
    "with_cookie hit": _frozen_by_with_cookie_hit,
    "without_cookie hit": _frozen_by_without_cookie_hit,
    "cookie slot, own requester": _frozen_by_slot_own_requester,
    "cookie slot, another requester": _frozen_by_slot_other_requester,
    "AnsSimulator": _frozen_by_ans_simulator,
    "AuthoritativeServer": _frozen_by_authoritative_server,
    "LrsSimulator": _frozen_by_lrs_simulator,
}


def _wire_holds(message: Message) -> bool:
    head = struct.pack("!HH", message.header.msg_id, message.header.flags_word())
    return head + message._body == message._encode_once(True)


@pytest.mark.parametrize("source", FROZEN_SOURCES)
class TestSeal:
    """Freezing seals a message: its sections are tuples, so the memo
    contract (a frozen message is never edited in place) is the type's; and
    a re-head holds its prototype's own tuples and memo, building no list
    and no bytes."""

    def frozen(self, source: str):
        message, prototype = FROZEN_SOURCES[source]()
        assert message._body is not None and _wire_holds(message)
        return message, prototype

    def test_an_in_place_edit_raises(self, source):
        message, _ = self.frozen(source)
        record = a_record("extra.foo.com", "192.0.2.99")
        for section in SECTIONS:
            with pytest.raises(AttributeError):
                getattr(message, section).append(record)
        assert _wire_holds(message)

    def test_its_copy_is_editable_and_encodes_the_edit(self, source):
        message, _ = self.frozen(source)
        before = message.encode()
        record = a_record("extra.foo.com", "192.0.2.99")
        edited = message.copy()
        for section in SECTIONS[1:]:
            getattr(edited, section).append(record)
        assert edited._body is None
        parsed = Message._parse(edited.encode())
        for section in SECTIONS[1:]:
            assert list(getattr(parsed, section)) == getattr(edited, section)
            assert getattr(parsed, section)[-1] == record
        assert edited.wire_size() == len(edited.encode()) > len(before)
        assert message.encode() == before and _wire_holds(message)

    def test_a_re_head_is_the_prototype_s_own_sections_and_wire(self, source):
        message, prototype = self.frozen(source)
        pairs = [(message.with_header(Header(msg_id=0xBEEF, qr=True)), message)]
        if prototype is not None:
            pairs.append((message, prototype))
        for derived, original in pairs:
            for section in SECTIONS:
                assert getattr(derived, section) is getattr(original, section), section
            assert derived._body is original._body
            assert _wire_holds(derived)


class TestMalformedInput:
    def test_rdata_overrun_rejected(self):
        msg = make_query("x.com")
        msg.answers.append(a_record("x.com", "1.2.3.4"))
        msg.header.qr = True
        wire = bytearray(msg.encode())
        wire = wire[:-2]  # chop the tail of the A rdata
        with pytest.raises(DecodeError):
            Message.decode(bytes(wire))

    def test_count_mismatch_rejected(self):
        query = make_query("x.com")
        wire = bytearray(query.encode())
        wire[5] = 2  # claim qdcount=2 while only one question present
        with pytest.raises(DecodeError):
            Message.decode(bytes(wire))

    def test_empty_message_rejected(self):
        with pytest.raises(DecodeError):
            Message.decode(b"")

    def test_question_accessor_requires_question(self):
        with pytest.raises(DecodeError):
            Message().question

    def test_bad_a_rdlength_rejected(self):
        query = make_query("x.com")
        response = make_response(query)
        response.answers.append(
            ResourceRecord(Name.from_text("x.com"), RRType.A, RRClass.IN, 1, Opaque(b"\x01\x02"))
        )
        with pytest.raises(DecodeError):
            Message.decode(response.encode())


class TestAccessors:
    def test_records_by_section_and_type(self):
        msg = Message()
        msg.answers.append(a_record("a.com", "1.1.1.1"))
        msg.answers.append(ns_record("a.com", "ns.a.com"))
        assert len(msg.records("answer")) == 2
        assert len(msg.records("answer", RRType.A)) == 1
        assert len(msg.records("authority")) == 0

    def test_is_query_response(self):
        query = make_query("a.com")
        assert query.is_query() and not query.is_response()
        response = make_response(query)
        assert response.is_response() and not response.is_query()

    def test_str_contains_question(self):
        assert "www.foo.com." in str(make_query("www.foo.com"))
