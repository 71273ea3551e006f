"""Unit tests for the message codec: headers, records, truncation."""

import dataclasses
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
)


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
        assert Message.decode(wire).additionals == response.additionals
        assert calls["Name"] > 0  # the counter was live


class TestCopy:
    def test_copy_of_a_frozen_message_is_editable(self):
        """``copy.copy`` carried the frozen wire memo into the copy, which
        then reported the old size and encoded the old bytes."""
        query = make_query("www.foo.com.", msg_id=7).freeze()
        stamped = query.copy()
        attach_cookie(stamped, b"\x01" * 16)
        assert (query.wire_size(), stamped.wire_size()) == (29, 57)
        assert Message.decode(stamped.encode()).additionals == stamped.additionals
        assert query.additionals == [] == Message.decode(query.encode()).additionals

    def test_copy_shares_records_and_owns_its_sections(self):
        response = make_response(make_query("a.com"))
        response.answers.append(a_record("a.com", "1.1.1.1"))
        clone = response.copy()
        assert clone == response and clone.header is response.header
        assert clone.answers[0] is response.answers[0]
        clone.answers.clear()
        clone.questions.clear()
        assert len(response.answers) == len(response.questions) == 1


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
