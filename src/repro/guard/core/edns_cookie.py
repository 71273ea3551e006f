"""RFC 7873 DNS Cookies — the pure codec and cookie computations.

The protocol half of :mod:`repro.guard.rfc7873`, with no simulator in
sight: the OPT-RR option codec, the stateless server-cookie computation
(RFC 7873 §6) and the per-(client, server) client-cookie derivation the
RFC recommends.  The middleboxes that move packets — the enforcement
guard and the LRS-side shim — stay in the adapter module and call down
into these.
"""

from __future__ import annotations

import hashlib

from ...dnswire import Message, Name, OPT, ResourceRecord, RRType

__layer__ = "pure-core"

#: Trust boundary for the flow analyser (``repro.analysis.flow``).  Pure
#: computation only: the keyed digests *are* the cookies, sent on the
#: wire by design, so the hash calls declassify; admission decisions are
#: made in the adapter (:mod:`repro.guard.rfc7873`), never here.
__trust_boundary__ = {
    "scheme": "rfc7873-core",
    "entry_points": [],
    "taint_params": [],
    "declassifiers": ["hashlib.md5"],
    "assumes": (
        "server_cookie/client cookie outputs are wire data; the adapter "
        "must route verification through EdnsCookieServer.verify before "
        "admitting (enforced there by T001)"
    ),
}

#: State-bound declaration for the memory analyser
#: (``repro.analysis.memory``): honestly empty — RFC 7873 §6 recomputes
#: the server cookie per query, so the core holds no per-source state.
__state_bounds__ = {}

#: EDNS option code for COOKIE (RFC 7873).
OPTION_COOKIE = 10

#: Client cookie length (fixed by the RFC).
CLIENT_COOKIE_LENGTH = 8

#: Our server cookie length (the RFC allows 8-32).
SERVER_COOKIE_LENGTH = 16


def _be32(address: int) -> bytes:
    """The 4 bytes an address hashes as (``int()`` also takes an
    ``IPv4Address``, whose ``.packed`` they equal)."""
    return int(address).to_bytes(4, "big")


def attach_edns_cookie(
    message: Message, client_cookie: bytes, server_cookie: bytes = b""
) -> Message:
    """Attach (or replace) an OPT RR carrying the COOKIE option, in place.

    ``message`` must be unfrozen: a fresh grant or a :meth:`Message.copy`.
    """
    if len(client_cookie) != CLIENT_COOKIE_LENGTH:
        raise ValueError(f"client cookie must be {CLIENT_COOKIE_LENGTH} bytes")
    strip_edns_cookie(message)
    opt = OPT(options=((OPTION_COOKIE, client_cookie + server_cookie),))
    message.additionals.append(
        ResourceRecord(Name.root(), RRType.OPT, 4096, 0, opt)
    )
    return message


def extract_edns_cookie(message: Message) -> tuple[bytes, bytes] | None:
    """(client_cookie, server_cookie) from the OPT RR, or None."""
    for rr in message.additionals:
        if rr.rtype == RRType.OPT and isinstance(rr.rdata, OPT):
            payload = rr.rdata.option(OPTION_COOKIE)
            if payload is None or len(payload) < CLIENT_COOKIE_LENGTH:
                return None
            return payload[:CLIENT_COOKIE_LENGTH], payload[CLIENT_COOKIE_LENGTH:]
    return None


def strip_edns_cookie(message: Message) -> Message:
    """Remove any OPT RR so the protected ANS sees classic DNS (in place, on
    an unfrozen message)."""
    message.additionals = [rr for rr in message.additionals if rr.rtype != RRType.OPT]
    return message


def derive_client_cookie(secret: bytes, client: int, server: int) -> bytes:
    """The shim's per-(client, server) client cookie (RFC 7873 §4).

    A keyed digest over both addresses (4-byte big-endian integers, as in
    :mod:`.cookie`), as the RFC recommends, so one learned cookie never
    identifies the client to a different server.
    """
    material = secret + _be32(client) + _be32(server)
    return hashlib.md5(material).digest()[:CLIENT_COOKIE_LENGTH]


class EdnsCookieServer:
    """Stateless server-cookie computation (RFC 7873 §6).

    ``key`` is required: a server cookie is only as unforgeable as its
    key is secret, so the core never supplies one of its own — the
    adapter draws it from the simulator's seeded ``rng``.
    """

    def __init__(self, key: bytes):
        self.key = key
        self.computations = 0

    def server_cookie(self, client_cookie: bytes, source: int) -> bytes:
        self.computations += 1
        material = client_cookie + _be32(source) + self.key
        return hashlib.md5(material).digest()[:SERVER_COOKIE_LENGTH]

    def verify(self, client_cookie: bytes, server_cookie: bytes, source: int) -> bool:
        if len(server_cookie) != SERVER_COOKIE_LENGTH:
            return False
        return server_cookie == self.server_cookie(client_cookie, source)
