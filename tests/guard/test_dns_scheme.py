"""Unit tests for cookie-name encoding and response fabrication (§III.B)."""

import random
from ipaddress import IPv4Address

from repro.dnswire import Name, RRType, a_record, make_query
from repro.guard import (
    CookieFactory,
    cookie_name_answer,
    decode_cookie_name,
    delegation_owner,
    encode_cookie_name,
    fabricated_referral,
    random_key,
)

#: keys are seeded like everything else: nothing here draws OS entropy
RNG = random.Random(2006)

ROOT = Name.root()
FOO = Name.from_text("foo.com")
COOKIE = b"PRa1b2c3d4"


class TestCoreSeam:
    def test_adapter_reexports_the_pure_core_codec(self):
        """repro.guard re-exports guard.core.dns_scheme's codec — same
        objects, so round-trips below cover both import paths."""
        from repro import guard
        from repro.guard.core import dns_scheme

        assert guard.encode_cookie_name is dns_scheme.encode_cookie_name
        assert guard.decode_cookie_name is dns_scheme.decode_cookie_name
        assert guard.delegation_owner is dns_scheme.delegation_owner

    def test_core_round_trip_without_adapter(self):
        from repro.guard.core.dns_scheme import decode_cookie_name as dec
        from repro.guard.core.dns_scheme import encode_cookie_name as enc

        qname = Name.from_text("ns.example.net")
        decoded = dec(enc(COOKIE, qname, ROOT), ROOT)
        assert decoded.cookie_label == COOKIE
        assert decoded.original_qname == qname


class TestCookieNameCodec:
    def test_root_origin_round_trip(self):
        qname = Name.from_text("www.foo.com")
        encoded = encode_cookie_name(COOKIE, qname, ROOT)
        assert len(encoded) == 1  # single label under the root
        decoded = decode_cookie_name(encoded, ROOT)
        assert decoded is not None
        assert decoded.cookie_label == COOKIE
        assert decoded.original_qname == qname

    def test_leaf_origin_round_trip(self):
        qname = Name.from_text("www.foo.com")
        encoded = encode_cookie_name(COOKIE, qname, FOO)
        assert encoded.parent() == FOO  # one label below foo.com
        decoded = decode_cookie_name(encoded, FOO)
        assert decoded.original_qname == qname

    def test_deep_name_round_trip(self):
        qname = Name.from_text("a.b.c.foo.com")
        decoded = decode_cookie_name(encode_cookie_name(COOKIE, qname, FOO), FOO)
        assert decoded.original_qname == qname

    def test_origin_itself_round_trip(self):
        decoded = decode_cookie_name(encode_cookie_name(COOKIE, FOO, FOO), FOO)
        assert decoded.original_qname == FOO

    def test_too_long_name_returns_none(self):
        qname = Name([b"x" * 60, b"com"])
        assert encode_cookie_name(COOKIE, qname, ROOT) is None

    def test_a_label_holding_a_dot_does_not_fit(self):
        """Regression: ``a\\.b.foo.com`` (3 labels) joined with dots decoded as
        ``a.b.foo.com`` (4 labels) — the guard restored a question nobody asked."""
        qname = Name([b"a.b", b"foo", b"com"])
        assert encode_cookie_name(COOKIE, qname, FOO) is None
        assert encode_cookie_name(COOKIE, qname, ROOT) is None

    def test_decode_rejects_normal_names(self):
        assert decode_cookie_name(Name.from_text("www.foo.com"), ROOT) is None
        assert decode_cookie_name(Name.from_text("com"), ROOT) is None

    def test_decode_rejects_wrong_depth(self):
        encoded = encode_cookie_name(COOKIE, Name.from_text("www.foo.com"), ROOT)
        # the same label one level deeper is not a cookie name for the root
        deeper = Name((encoded.labels[0], b"com"))
        assert decode_cookie_name(deeper, ROOT) is None
        # ... but it is a valid cookie name under origin "com"
        assert decode_cookie_name(deeper, Name.from_text("com")) is not None

    def test_decode_rejects_prefix_only_lookalikes(self):
        assert decode_cookie_name(Name([b"PRshort"]), ROOT) is None

    def test_label_is_wire_safe(self):
        """The encoded name must survive the wire codec."""
        from repro.dnswire import Message

        qname = Name.from_text("www.foo.com")
        encoded = encode_cookie_name(COOKIE, qname, ROOT)
        query = make_query(encoded, RRType.A, msg_id=5)
        decoded_query = Message.decode(query.encode())
        assert decode_cookie_name(decoded_query.question.qname, ROOT).original_qname == qname


class TestDelegationOwner:
    def test_root_guard_delegates_tld(self):
        assert delegation_owner(Name.from_text("www.foo.com"), ROOT) == Name.from_text("com")

    def test_leaf_guard_delegates_next_label(self):
        assert delegation_owner(Name.from_text("www.foo.com"), FOO) == Name.from_text(
            "www.foo.com"
        )

    def test_deep_name_delegates_one_level(self):
        assert delegation_owner(Name.from_text("a.b.foo.com"), FOO) == Name.from_text(
            "b.foo.com"
        )

    def test_origin_query(self):
        assert delegation_owner(FOO, FOO) == FOO


class TestFabrication:
    def test_fabricated_referral_shape(self):
        query = make_query("www.foo.com", msg_id=9)
        factory = CookieFactory(random_key(RNG))
        label = factory.label_cookie(IPv4Address("10.0.0.53"))
        reply = fabricated_referral(query, ROOT, label, ttl=3600)
        assert reply.header.qr and not reply.header.aa
        assert reply.answers == []
        (ns,) = reply.authorities
        assert ns.rtype == RRType.NS
        assert ns.name == Name.from_text("com")
        assert ns.ttl == 3600
        assert reply.additionals == []  # fabricated referrals carry no glue

    def test_fabricated_referral_amplification_bounded(self):
        """§III.E bounds the response growth to one compressed NS record.

        The paper quotes ~24 bytes (embedding only the next label); we embed
        the full original name for universal restoration, costing a few more
        bytes but still nowhere near the 10x amplification of an unguarded
        ANS.  At the IP level the ratio stays well under the paper's 50%
        bound plus the extra name bytes.
        """
        query = make_query("www.foo.com", msg_id=9)
        factory = CookieFactory(random_key(RNG))
        label = factory.label_cookie(IPv4Address("10.0.0.53"))
        reply = fabricated_referral(query, ROOT, label)
        amplification = reply.wire_size() - query.wire_size()
        assert amplification <= 24 + len("www.foo.com")
        ip_level_ratio = (reply.wire_size() + 28) / (query.wire_size() + 28)
        assert ip_level_ratio < 1.7

    def test_fabricated_referral_none_when_name_too_long(self):
        query = make_query(Name([b"y" * 60, b"org"]), msg_id=1)
        assert fabricated_referral(query, ROOT, COOKIE) is None

    def test_cookie_name_answer_from_glue(self):
        cookie_qname = encode_cookie_name(COOKIE, Name.from_text("www.foo.com"), ROOT)
        query = make_query(cookie_qname, RRType.A, msg_id=2)
        glue = [a_record("ns1.com", "192.5.6.30", ttl=172800)]
        reply = cookie_name_answer(query, glue)
        (answer,) = reply.answers
        assert answer.name == cookie_qname  # renamed to the fabricated NS
        assert answer.rdata.address == IPv4Address("192.5.6.30")
        assert answer.ttl == 172800  # the real ANS IP keeps its own TTL

    def test_cookie_name_answer_from_raw_address(self):
        cookie_qname = encode_cookie_name(COOKIE, Name.from_text("www.foo.com"), ROOT)
        query = make_query(cookie_qname, RRType.A, msg_id=3)
        reply = cookie_name_answer(query, [IPv4Address("1.2.3.7")], ttl=604800)
        (answer,) = reply.answers
        assert answer.rdata.address == IPv4Address("1.2.3.7")
        assert answer.ttl == 604800
