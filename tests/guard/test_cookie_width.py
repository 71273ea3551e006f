"""Configurable cookie-label width (§III.E's variable COOKIE size)."""

import random
from ipaddress import IPv4Address

import pytest

from repro.dns import LrsSimulator
from repro.guard import CookieFactory, random_key
from repro.guard.core import decode_cookie_name, encode_cookie_name
from repro.dnswire import Name

#: keys are seeded like everything else: nothing here draws OS entropy
RNG = random.Random(2006)

LRS = IPv4Address("10.0.0.53")


class TestWidthConfiguration:
    @pytest.mark.parametrize("digits", [4, 8, 16, 32])
    def test_round_trip_at_any_width(self, digits):
        factory = CookieFactory(random_key(RNG), label_hex_digits=digits)
        label = factory.label_cookie(LRS)
        assert len(label) == 2 + digits
        assert factory.verify_label(label, LRS)
        assert not factory.verify_label(label, IPv4Address("10.0.0.54"))

    def test_odd_width_rejected(self):
        with pytest.raises(ValueError):
            CookieFactory(random_key(RNG), label_hex_digits=7)

    def test_oversize_width_rejected(self):
        with pytest.raises(ValueError):
            CookieFactory(random_key(RNG), label_hex_digits=34)

    def test_wider_cookie_means_larger_range(self):
        """16 hex digits = 2^64 range vs the default 2^32."""
        wide = CookieFactory(random_key(RNG), label_hex_digits=16)
        narrow = CookieFactory(random_key(RNG), label_hex_digits=8)
        assert len(wide.label_cookie(LRS)) - len(narrow.label_cookie(LRS)) == 8

    def test_narrow_label_fails_wide_verification(self):
        """A guard configured wide rejects labels from a narrower config."""
        factory = CookieFactory(random_key(RNG), label_hex_digits=16)
        narrow = CookieFactory(
            b"x" * 76, label_hex_digits=8
        ).label_cookie(LRS)
        assert not factory.verify_label(narrow, LRS)

    def test_cookie_name_codec_at_width(self):
        factory = CookieFactory(random_key(RNG), label_hex_digits=16)
        label = factory.label_cookie(LRS)
        qname = Name.from_text("www.foo.com")
        encoded = encode_cookie_name(label, qname, Name.root())
        decoded = decode_cookie_name(
            encoded, Name.root(), cookie_length=factory.label_cookie_length
        )
        assert decoded is not None
        assert decoded.cookie_label == label
        assert decoded.original_qname == qname


class TestWidthEndToEnd:
    @pytest.mark.parametrize("digits", [4, 16])
    def test_guard_with_nondefault_width(self, digits):
        from repro.experiments.testbed import ANS_ADDRESS, GuardTestbed

        bed = GuardTestbed(ans="simulator", ans_mode="referral")
        bed.guard.cookies = CookieFactory(random_key(RNG), label_hex_digits=digits)
        client = bed.add_client("lrs")
        lrs = LrsSimulator(client, ANS_ADDRESS, workload="referral")
        lrs.start()
        bed.run(0.2)
        lrs.stop()
        assert lrs.stats.completed > 100
        assert lrs.stats.timeouts == 0
        assert bed.guard.valid_cookies >= lrs.stats.completed
