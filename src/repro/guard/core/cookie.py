"""Cookie generation, encoding and verification (paper §III.E) — pure core.

The cookie for a requester at ``source_ip`` is::

    c = MD5(source_ip || key)

with a 76-byte secret key, so the hash input is the 80 bytes MD5 consumes in
a single block.  ``source_ip`` is the 4-byte big-endian source integer — the
paper's iptables module hashes the packet's ``__be32`` — so every method
here takes the address as an ``int``, which the adapters hand in.  ``int()``
is applied before packing, so an :class:`~ipaddress.IPv4Address` (whose
``.packed`` is the same 4 bytes) still hashes to the same cookie.

Three encodings of ``c`` are used by the schemes:

* **full cookie** — all 16 bytes, carried in the modified-DNS TXT extension;
* **NS-label cookie** — a 10-byte label prefix: 2-byte marker (``PR``) plus
  8 hex characters encoding the first 4 bytes of ``c`` (range 2^32);
* **IP cookie** — ``y = first4(c) mod R_y``, the host part of a fabricated
  address inside the guard's subnet (range R_y).

Key rotation (§III.E, last paragraph): the first bit of every issued cookie
is overwritten with the key *generation* parity.  On verification the guard
picks the current or previous key by that bit, so rotating keys weekly never
invalidates cookies mid-TTL and costs exactly one MD5 per check.

This module is the pure half of the seam: every byte of randomness comes
in through the :class:`~repro.guard.core.ports.Rng` port (or an explicit
``key`` argument), so the same state machine drives the deterministic
simulator and a future socket front end.  Nothing here — and nothing in
the adapters — draws OS entropy: a caller outside a simulation supplies
its own key.
"""

from __future__ import annotations

import hashlib

from .ports import Rng

__layer__ = "pure-core"

#: Trust boundary for the flow analyser (``repro.analysis.flow``): the
#: scheme is exactly as strong as key secrecy, so T002 tracks the key
#: attributes and producers named here (they are also the repo-wide
#: defaults).  MD5 over the key is the *cookie* — sent to clients by
#: design — hence hashlib.md5 declassifies.
__trust_boundary__ = {
    "scheme": "cookie-core",
    "secret_attrs": ["_current_key", "_previous_key"],
    "secret_calls": ["random_key", "export_state"],
    "declassifiers": ["hashlib.md5"],
    "assumes": (
        "export_state() output is persisted state handed to restart(), "
        "never telemetry; anything else carrying SEC into a log, repr, "
        "or obs exporter is a T002 key leak"
    ),
}

#: State-bound declaration for the memory analyser
#: (``repro.analysis.memory``): honestly empty.  The cookie core is
#: stateless by design — §IV.B's one-MD5-per-check works from two fixed
#: keys and the query itself; there is no per-source table to exhaust.
__state_bounds__ = {}

#: Key length chosen so key+IPv4 fills one 80-byte MD5 input block.
KEY_LENGTH = 76

#: Marker prefix distinguishing cookie labels from normal names.
LABEL_PREFIX = b"PR"

#: Hex characters of cookie material in an NS-label cookie (4 bytes).
LABEL_HEX_DIGITS = 8

#: Full length of the cookie part of a label: prefix + hex digits.
LABEL_COOKIE_LENGTH = len(LABEL_PREFIX) + LABEL_HEX_DIGITS

_FOLDED_PREFIX = LABEL_PREFIX.lower()


def random_key(rng: Rng) -> bytes:
    """A fresh 76-byte secret key drawn from the injected ``rng`` port.

    Simulated components pass the seeded ``Simulator.rng`` so key
    material — and everything derived from it: cookie values, fabricated
    addresses, packet bytes — replays exactly from the seed.  The core
    draws no entropy of its own.
    """
    return bytes(rng.getrandbits(8) for _ in range(KEY_LENGTH))


class CookieFactory:
    """Computes and verifies cookies under the current (and previous) key.

    ``label_hex_digits`` sets how much cookie material an NS-label cookie
    carries (§III.E: "Different DNS guards can also choose to use different
    number of bytes for COOKIE") — the label-cookie range is
    16^label_hex_digits.  Must be even (hex pairs) and at most 32.

    ``key`` is required: the core never invents entropy.
    """

    def __init__(
        self,
        key: bytes,
        *,
        generation: int = 0,
        label_hex_digits: int = LABEL_HEX_DIGITS,
    ):
        self._current_key = key
        self._validate_key(self._current_key)
        if label_hex_digits % 2 or not 2 <= label_hex_digits <= 32:
            raise ValueError("label_hex_digits must be even and within 2..32")
        self.label_hex_digits = label_hex_digits
        #: total bytes of a label cookie: marker prefix plus hex digits
        self.label_cookie_length = len(LABEL_PREFIX) + label_hex_digits
        self._previous_key: bytes | None = None
        self.generation = generation
        self.computations = 0

    @staticmethod
    def _validate_key(key: bytes) -> None:
        if len(key) != KEY_LENGTH:
            raise ValueError(f"key must be {KEY_LENGTH} bytes, got {len(key)}")

    # -- persistence --------------------------------------------------------------

    def export_state(self) -> bytes:
        """Serialise key material so a restarted guard honours old cookies.

        Layout: 1 byte flags (bit 0: previous key present), 4 bytes
        generation (big endian), current key, then the previous key if any.
        """
        flags = 1 if self._previous_key is not None else 0
        blob = bytes([flags]) + self.generation.to_bytes(4, "big") + self._current_key
        if self._previous_key is not None:
            blob += self._previous_key
        return blob

    @classmethod
    def import_state(cls, blob: bytes, *, label_hex_digits: int = LABEL_HEX_DIGITS) -> "CookieFactory":
        """Rebuild a factory from :meth:`export_state` output."""
        if len(blob) < 5 + KEY_LENGTH:
            raise ValueError("cookie state blob too short")
        flags = blob[0]
        generation = int.from_bytes(blob[1:5], "big")
        current = blob[5 : 5 + KEY_LENGTH]
        factory = cls(current, generation=generation, label_hex_digits=label_hex_digits)
        if flags & 1:
            previous = blob[5 + KEY_LENGTH : 5 + 2 * KEY_LENGTH]
            if len(previous) != KEY_LENGTH:
                raise ValueError("cookie state blob truncated")
            factory._previous_key = previous
        return factory

    # -- rotation ---------------------------------------------------------------

    def rotate(self, new_key: bytes) -> None:
        """Install a new key; the old one remains valid for one generation."""
        self._validate_key(new_key)
        self._previous_key = self._current_key
        self._current_key = new_key
        self.generation += 1

    # -- computation -------------------------------------------------------------

    def _raw(self, source_ip: int, key: bytes) -> bytes:
        self.computations += 1
        return hashlib.md5(int(source_ip).to_bytes(4, "big") + key).digest()

    def _stamp_generation(self, cookie: bytes, generation: int) -> bytes:
        """Overwrite the first bit with the generation parity."""
        first = cookie[0] & 0x7F
        if generation & 1:
            first |= 0x80
        return bytes([first]) + cookie[1:]

    def cookie(self, source_ip: int) -> bytes:
        """The 16-byte cookie for ``source_ip`` under the current key."""
        raw = self._raw(source_ip, self._current_key)
        return self._stamp_generation(raw, self.generation)

    def verify(self, cookie: bytes, source_ip: int) -> bool:
        """Check a full 16-byte cookie, honouring the generation bit.

        The bit picks the key whose generation parity it is, so the stamped
        cookie would match it there; what is left to compare is the digest
        past that bit, without building the stamped cookie.
        """
        if len(cookie) != 16:
            return False
        if cookie[0] >> 7 == (self.generation & 1):
            key = self._current_key
        elif self._previous_key is not None:
            key = self._previous_key
        else:
            return False
        raw = self._raw(source_ip, key)
        return not (cookie[0] ^ raw[0]) & 0x7F and cookie[1:] == raw[1:]

    # -- NS-label encoding ---------------------------------------------------------

    def label_cookie(self, source_ip: int) -> bytes:
        """The cookie prefix for a fabricated NS label: ``PR`` + hex digits."""
        c = self.cookie(source_ip)
        material = c[: self.label_hex_digits // 2]
        return LABEL_PREFIX + material.hex().encode("ascii")

    def verify_label(self, label_cookie: bytes, source_ip: int) -> bool:
        """Check an NS-label cookie against ``source_ip``.

        Matching is case-insensitive (marker and hex digits) so DNS-0x20
        resolvers, which randomise query-name casing, verify cleanly: the
        case-folded label is compared with the minted one, which is
        lower-case hex.  A label that is not all hex digits costs no MD5.
        """
        folded = label_cookie.lower()
        if len(folded) != self.label_cookie_length or folded[:2] != _FOLDED_PREFIX:
            return False
        digits = folded[2:]
        if digits.translate(None, b"0123456789abcdef"):
            return False
        # the generation bit is the high bit of the first digit: "8" and up
        if (digits[0] >= 0x38) == (self.generation & 1):
            key, generation = self._current_key, self.generation
        elif self._previous_key is not None:
            key, generation = self._previous_key, self.generation - 1
        else:
            return False
        expected = self._stamp_generation(self._raw(source_ip, key), generation)
        return digits == expected[: self.label_hex_digits // 2].hex().encode()

    # -- IP-cookie encoding ----------------------------------------------------------

    def ip_cookie(self, source_ip: int, host_range: int) -> int:
        """``y`` for the fabricated COOKIE2 address: first4(c) mod R_y."""
        if host_range <= 0:
            raise ValueError("host_range must be positive")
        c = self.cookie(source_ip)
        return int.from_bytes(c[:4], "big") % host_range

    def verify_ip_cookie(self, y: int, source_ip: int, host_range: int) -> bool:
        """Check a fabricated-address host index, under both key generations."""
        if not 0 <= y < host_range:
            return False
        current = int.from_bytes(self.cookie(source_ip)[:4], "big") % host_range
        if y == current:
            return True
        if self._previous_key is None:
            return False
        previous_raw = self._stamp_generation(
            self._raw(source_ip, self._previous_key), self.generation - 1
        )
        return y == int.from_bytes(previous_raw[:4], "big") % host_range
