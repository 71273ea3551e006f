"""Unit tests for cookie generation, encodings and key rotation (§III.E)."""

import hashlib
import random
from ipaddress import IPv4Address

import pytest

from repro.guard import CookieFactory, KEY_LENGTH, LABEL_COOKIE_LENGTH, random_key
from repro.guard.core import EdnsCookieServer

#: keys are seeded like everything else: nothing here draws OS entropy
RNG = random.Random(2006)

LRS = IPv4Address("10.0.0.53")
OTHER = IPv4Address("192.0.2.7")


class TestFullCookie:
    def test_cookie_is_md5_of_ip_and_key(self):
        key = bytes(range(76))
        factory = CookieFactory(key)
        expected = hashlib.md5(LRS.packed + key).digest()
        got = factory.cookie(LRS)
        # generation 0 stamps the first bit to 0
        assert got[1:] == expected[1:]
        assert got[0] == expected[0] & 0x7F

    def test_input_is_one_md5_block(self):
        # 76-byte key + 4-byte IP = 80 bytes, as the paper specifies
        assert KEY_LENGTH + 4 == 80

    def test_verify_accepts_own_cookie(self):
        factory = CookieFactory(random_key(RNG))
        assert factory.verify(factory.cookie(LRS), LRS)

    def test_verify_rejects_wrong_source(self):
        factory = CookieFactory(random_key(RNG))
        assert not factory.verify(factory.cookie(LRS), OTHER)

    def test_verify_rejects_garbage(self):
        factory = CookieFactory(random_key(RNG))
        assert not factory.verify(b"\x00" * 16, LRS)
        assert not factory.verify(b"short", LRS)

    def test_cookies_differ_per_source(self):
        factory = CookieFactory(random_key(RNG))
        assert factory.cookie(LRS) != factory.cookie(OTHER)

    def test_cookies_differ_per_key(self):
        assert CookieFactory(random_key(RNG)).cookie(LRS) != CookieFactory(
            random_key(RNG)
        ).cookie(LRS)

    def test_bad_key_length_rejected(self):
        with pytest.raises(ValueError):
            CookieFactory(b"short")

    def test_computation_counter(self):
        factory = CookieFactory(random_key(RNG))
        factory.cookie(LRS)
        factory.verify(factory.cookie(LRS), LRS)
        assert factory.computations == 3  # cookie + cookie + verify


class TestKeyRotation:
    def test_old_cookie_valid_for_one_generation(self):
        factory = CookieFactory(random_key(RNG))
        old = factory.cookie(LRS)
        factory.rotate(random_key(RNG))
        assert factory.verify(old, LRS)

    def test_old_cookie_dies_after_two_rotations(self):
        factory = CookieFactory(random_key(RNG))
        old = factory.cookie(LRS)
        factory.rotate(random_key(RNG))
        factory.rotate(random_key(RNG))
        assert not factory.verify(old, LRS)

    def test_new_cookie_valid_after_rotation(self):
        factory = CookieFactory(random_key(RNG))
        factory.rotate(random_key(RNG))
        assert factory.verify(factory.cookie(LRS), LRS)

    def test_generation_bit_flips(self):
        factory = CookieFactory(random_key(RNG))
        gen0 = factory.cookie(LRS)
        factory.rotate(random_key(RNG))
        gen1 = factory.cookie(LRS)
        assert gen0[0] >> 7 == 0
        assert gen1[0] >> 7 == 1

    def test_verification_needs_one_md5(self):
        """§III.E: the generation bit means each check costs one MD5."""
        factory = CookieFactory(random_key(RNG))
        old = factory.cookie(LRS)
        factory.rotate(random_key(RNG))
        before = factory.computations
        factory.verify(old, LRS)
        assert factory.computations == before + 1

    def test_label_cookie_survives_rotation(self):
        factory = CookieFactory(random_key(RNG))
        label = factory.label_cookie(LRS)
        factory.rotate(random_key(RNG))
        assert factory.verify_label(label, LRS)


class TestLabelCookie:
    def test_format_is_prefix_plus_hex(self):
        factory = CookieFactory(random_key(RNG))
        label = factory.label_cookie(LRS)
        assert len(label) == LABEL_COOKIE_LENGTH == 10
        assert label.startswith(b"PR")
        int(label[2:].decode(), 16)  # must be valid hex

    def test_round_trip(self):
        factory = CookieFactory(random_key(RNG))
        assert factory.verify_label(factory.label_cookie(LRS), LRS)

    def test_rejects_other_source(self):
        factory = CookieFactory(random_key(RNG))
        assert not factory.verify_label(factory.label_cookie(LRS), OTHER)

    def test_rejects_malformed(self):
        factory = CookieFactory(random_key(RNG))
        assert not factory.verify_label(b"PRzzzzzzzz", LRS)  # not hex
        assert not factory.verify_label(b"XXa1b2c3d4", LRS)  # wrong prefix
        assert not factory.verify_label(b"PR", LRS)  # short

    def test_cookie_range_is_2_to_32(self):
        """8 hex chars encode 4 bytes: the paper's 4-billion range."""
        factory = CookieFactory(random_key(RNG))
        label = factory.label_cookie(LRS)
        assert len(label[2:]) == 8


class TestIpCookie:
    def test_within_range(self):
        factory = CookieFactory(random_key(RNG))
        for r_y in (10, 254, 65534):
            assert 0 <= factory.ip_cookie(LRS, r_y) < r_y

    def test_round_trip(self):
        factory = CookieFactory(random_key(RNG))
        y = factory.ip_cookie(LRS, 254)
        assert factory.verify_ip_cookie(y, LRS, 254)

    def test_wrong_y_rejected(self):
        factory = CookieFactory(random_key(RNG))
        y = factory.ip_cookie(LRS, 254)
        assert not factory.verify_ip_cookie((y + 1) % 254, LRS, 254)

    def test_out_of_range_rejected(self):
        factory = CookieFactory(random_key(RNG))
        assert not factory.verify_ip_cookie(300, LRS, 254)
        assert not factory.verify_ip_cookie(-1, LRS, 254)

    def test_survives_rotation(self):
        factory = CookieFactory(random_key(RNG))
        y = factory.ip_cookie(LRS, 254)
        factory.rotate(random_key(RNG))
        assert factory.verify_ip_cookie(y, LRS, 254)

    def test_invalid_range_rejected(self):
        factory = CookieFactory(random_key(RNG))
        with pytest.raises(ValueError):
            factory.ip_cookie(LRS, 0)

    def test_guess_success_rate_is_one_over_range(self):
        """§III.G: random guessing succeeds with probability 1/R_y."""
        factory = CookieFactory(bytes(76))
        r_y = 16
        hits = sum(
            1
            for host in range(200)
            for y in [host % r_y]
            if factory.verify_ip_cookie(y, IPv4Address(f"10.1.{host // 250}.{host % 250 + 1}"), r_y)
        )
        # expect about 200/16 = 12.5 hits; allow generous slack
        assert 2 <= hits <= 40


class TestKnownAnswers:
    """The paper's ``MD5(source || key)`` pinned byte for byte.

    The hex values were computed when the core still took ``IPv4Address``
    and hashed ``.packed``; the core now takes the address integer and
    hashes its 4 big-endian bytes, which are the same bytes.
    """

    KEY = bytes(range(KEY_LENGTH))
    SERVER_KEY = bytes(range(16))
    CLIENT_COOKIE = bytes(range(8))
    HOST_RANGE = 254

    #: address -> (full cookie, label cookie, ip_cookie(254), RFC 7873 server cookie)
    ANSWERS = {
        "0.0.0.1": (
            "490643e4337e5ee3329c5d58f30acdd3", b"PR490643e4", 208,
            "9a07f9b02c7b2ee352e1b916e70d5689",
        ),
        "1.2.3.4": (
            "2f3ad99f92e470b22e5dca7a5e18d2ab", b"PR2f3ad99f", 185,
            "666a4ca56bfe7e6469c3f239af5947d3",
        ),
        "255.255.255.255": (
            "382af4989babecf7be4a08a4a39a3a39", b"PR382af498", 240,
            "1b1c42fbe444eb7e326c842a3aa7c753",
        ),
    }

    @pytest.mark.parametrize("text", sorted(ANSWERS))
    def test_int_api_reproduces_the_pinned_values(self, text):
        full, label, y, server = self.ANSWERS[text]
        source = int(IPv4Address(text))
        factory = CookieFactory(self.KEY)
        edns = EdnsCookieServer(self.SERVER_KEY)
        assert factory.cookie(source).hex() == full
        assert factory.label_cookie(source) == label
        assert factory.ip_cookie(source, self.HOST_RANGE) == y
        assert edns.server_cookie(self.CLIENT_COOKIE, source).hex() == server
        # an IPv4Address still hashes as its integer does
        assert factory.cookie(IPv4Address(text)).hex() == full
        assert edns.server_cookie(self.CLIENT_COOKIE, IPv4Address(text)).hex() == server

    @pytest.mark.parametrize("text", sorted(ANSWERS))
    def test_the_full_cookie_is_md5_of_the_be32_source_and_key(self, text):
        digest = hashlib.md5(IPv4Address(text).packed + self.KEY).digest()
        # generation 0 clears the first bit
        stamped = bytes([digest[0] & 0x7F]) + digest[1:]
        assert stamped.hex() == self.ANSWERS[text][0]
