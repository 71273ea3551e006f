"""RFC 7873 DNS Cookies — the standardised descendant of this paper's idea.

The paper's modified-DNS scheme (2006) became, a decade later, RFC 7873:
an EDNS(0) COOKIE option carrying a *client cookie* (8 bytes, chosen by the
client) and a *server cookie* (8-32 bytes, a keyed hash binding the client
cookie to the client's address).  This module implements that protocol on
the same testbed so the two designs can be compared head-to-head
(``python -m repro ablation``; the ledger's ``rfc7873/modified`` row):

* :class:`EdnsCookieGuard` — an inline middlebox enforcing cookies in front
  of an ANS, mirroring :class:`~repro.guard.RemoteDnsGuard`'s deployment;
* :class:`EdnsCookieClientShim` — an LRS-side middlebox that makes an
  unmodified resolver cookie-capable, mirroring
  :class:`~repro.guard.LocalDnsGuard`.

We run the guard in the RFC's hard-enforcement posture (§5.2.3's
alternative for servers under attack): a query carrying only a client
cookie earns an answerless response with the correct server cookie, and
the client retries — the same 2-round-trip first contact as the paper's
modified-DNS scheme, but with the cookie bound to the *client's* cookie as
well as its address.

The protocol itself — the OPT-RR option codec, the stateless
server-cookie computation and the client-cookie derivation — lives in
the pure core (:mod:`repro.guard.core.edns_cookie`); this module is the
simulator adapter moving packets around it, and re-exports the core
names for compatibility.
"""

from __future__ import annotations

import dataclasses
import struct

from ..dnswire import Message
from ..netsim import Hook, Node, Packet, RoutingError, UdpDatagram, Verdict
from ..netsim import Address, parse_address
from .core.cookie import random_key
from .core.edns_cookie import (
    CLIENT_COOKIE_LENGTH,
    OPTION_COOKIE,
    SERVER_COOKIE_LENGTH,
    EdnsCookieServer,
    attach_edns_cookie,
    derive_client_cookie,
    extract_edns_cookie,
    strip_edns_cookie,
)
from .core.ratelimit import UnverifiedResponseLimiter
from .costs import GuardCosts

__layer__ = "adapter"

#: Trust boundary for the flow analyser (``repro.analysis.flow``).
__trust_boundary__ = {
    "scheme": "rfc7873",
    "entry_points": [
        "EdnsCookieGuard._transit",
        "EdnsCookieClientShim._transit",
    ],
    "taint_params": ["packet", "datagram", "message"],
    "sanitizers": ["server.verify"],
    "sinks": ["_forward"],
    "assumes": (
        "server-cookie grants and the no-cookie policy pass-through are "
        "the RFC's deliberate unverified paths; both are justified inline"
    ),
}

#: State-bound declaration for the memory analyser
#: (``repro.analysis.memory``).  The server side is stateless by design
#: (RFC 7873 §6 recomputes the cookie per query); only the client shim
#: caches learned server cookies and holds queries awaiting a grant, and
#: a spoofed response can address both tables, so each is hard-capped —
#: the shim schedules nothing, so a sweep is not an option here.
__state_bounds__ = {
    "EdnsCookieClientShim": {
        "_server_cookies": {
            "bound": 4096,
            "evicted_by": "cap",
            "keyed_by": "attacker",
        },
        "_held": {
            "bound": 1024,
            "evicted_by": "cap+lifecycle",
            "keyed_by": "attacker",
        },
    },
}

#: Caps for the client shim's tables: learned server cookies, held-query
#: keys, and held queries per key.  Oldest-first displacement; a
#: displaced cookie costs one extra grant round trip, a displaced held
#: query would have lapsed at its 2 s deadline anyway.
SHIM_COOKIE_CAP = 4096
SHIM_HELD_KEYS_CAP = 1024
SHIM_HELD_PER_KEY_CAP = 16

class EdnsCookieGuard:
    """Inline RFC 7873 enforcement in front of an ANS.

    Policy, per RFC 7873 §5.2: a query with a valid server cookie passes; a
    query with only a client cookie gets the correct server cookie back in
    an answerless response (rate-limited — it is still unverified); a query
    with no cookie at all is handled per ``no_cookie_policy`` ("forward"
    preserves compatibility, "drop" is the hard-enforcement mode used when
    under attack).
    """

    def __init__(
        self,
        node: Node,
        ans_address: Address,
        *,
        server: EdnsCookieServer | None = None,
        costs: GuardCosts | None = None,
        rl1: UnverifiedResponseLimiter | None = None,
        no_cookie_policy: str = "drop",
    ):
        self.node = node
        self.ans_address = parse_address(ans_address)
        # the key is drawn from the seeded rng, like RemoteDnsGuard's: a
        # constant would let anyone who has read the source mint a valid
        # server cookie for any spoofed address
        self.server = (
            server
            if server is not None
            else EdnsCookieServer(random_key(node.sim.rng))
        )
        self.costs = costs if costs is not None else GuardCosts()
        self.rl1 = rl1 if rl1 is not None else UnverifiedResponseLimiter(
            per_source_rate=1e9, per_source_burst=1e9
        )
        self.no_cookie_policy = no_cookie_policy
        self.valid_cookies = 0
        self.cookies_granted = 0
        self.invalid_drops = 0
        self.no_cookie_drops = 0
        self.overload_drops = 0
        self.unroutable_replies = 0
        node.filters.append(Hook.FORWARD, target=self._transit)
        node.forward_cost = self.costs.forward

    def _transit(self, packet: Packet) -> Verdict:
        segment = packet.segment
        if not isinstance(segment, UdpDatagram):
            return Verdict.ACCEPT
        src = packet.src
        if src == self.ans_address:
            return Verdict.ACCEPT
        if packet.dst != self.ans_address or segment.dport != 53:
            return Verdict.ACCEPT
        message = segment.payload
        if type(message) is bytes or not message.is_query():
            self._charge(self.costs.drop_invalid)
            return Verdict.DROP
        cookie = extract_edns_cookie(message)
        if cookie is None:
            if self.no_cookie_policy == "forward":
                # operator chose soft enforcement for legacy clients —
                # an explicit policy knob, not a verification bypass
                self._submit(self.costs.forward, self._forward, packet)  # repro: allow[T001] no_cookie_policy="forward" is an explicit operator decision
            else:
                self.no_cookie_drops += 1
                self._charge(self.costs.drop_invalid)
            return Verdict.DROP
        client_cookie, server_cookie = cookie
        if server_cookie and self.server.verify(client_cookie, server_cookie, src):
            self.valid_cookies += 1
            clean = message.copy()
            strip_edns_cookie(clean)
            forwarded = packet.with_message(clean)
            self._submit(self.costs.validate_and_forward, self._forward, forwarded)
            return Verdict.DROP
        if server_cookie:
            # wrong server cookie: could be stale or forged — drop (the
            # client will retry and learn the fresh cookie)
            self.invalid_drops += 1
            self._charge(self.costs.drop_invalid)
            return Verdict.DROP
        # client cookie only: grant the server cookie (unverified response)
        if not self.rl1.allow(src, self.node.sim.now):
            self._charge(self.costs.per_packet)
            return Verdict.DROP
        grant = Message(questions=list(message.questions))
        grant.header.msg_id = message.header.msg_id
        grant.header.qr = True
        attach_edns_cookie(
            grant, client_cookie, self.server.server_cookie(client_cookie, src)
        )
        self.cookies_granted += 1
        reply = packet.with_message(
            grant, src=packet.dst, dst=packet.src, sport=53, dport=segment.sport
        )
        # the grant is a bounded, rate-limited reply to the *claimed*
        # source (RFC 7873 §5.2.3) — a challenge, not an admission
        self._submit(self.costs.fabricate_response, self._forward, reply)  # repro: allow[T001] cookie grant returns to the claimed source under RL1
        return Verdict.DROP

    def _forward(self, packet: Packet) -> None:
        try:
            self.node.send(packet)
        except RoutingError:
            self.unroutable_replies += 1

    def _submit(self, cost: float, fn, *args) -> None:
        if not self.node.cpu.submit(cost, fn, *args):
            self.overload_drops += 1

    def _charge(self, cost: float) -> None:
        if not self.node.cpu.charge(cost):
            self.overload_drops += 1


@dataclasses.dataclass(slots=True)
class _ServerCookieEntry:
    server_cookie: bytes
    expires_at: float


class EdnsCookieClientShim:
    """LRS-side middlebox stamping RFC 7873 cookies onto plain queries.

    The client cookie is derived per (client, server) pair as the RFC
    recommends; the learned server cookie is cached and refreshed whenever
    a grant (answerless cookie response) comes back.
    """

    def __init__(self, node: Node, *, cookie_ttl: float = 3600.0):
        self.node = node
        self.cookie_ttl = cookie_ttl
        self._secret = struct.pack("!Q", node.sim.rng.getrandbits(64))
        #: keyed on (server, client) address integers
        self._server_cookies: dict[tuple[int, int], _ServerCookieEntry] = {}
        self._held: dict[tuple[int, int], list[tuple[Packet, UdpDatagram, float]]] = {}
        self.queries_stamped = 0
        self.grants_learned = 0
        node.filters.append(Hook.FORWARD, target=self._transit)

    def client_cookie(self, client: int, server: int) -> bytes:
        return derive_client_cookie(self._secret, client, server)

    def _transit(self, packet: Packet) -> Verdict:
        segment = packet.segment
        if not isinstance(segment, UdpDatagram):
            return Verdict.ACCEPT
        message = segment.payload
        if type(message) is bytes:
            return Verdict.ACCEPT
        if segment.dport == 53 and message.is_query():
            return self._outbound(packet, segment, message)
        if segment.sport == 53 and message.is_response():
            return self._inbound(packet, segment, message)
        return Verdict.ACCEPT

    def _outbound(self, packet: Packet, datagram: UdpDatagram, message: Message) -> Verdict:
        now = self.node.sim.now
        server, client = key = (packet.dst, packet.src)
        client_cookie = self.client_cookie(client, server)
        entry = self._server_cookies.get(key)
        server_cookie = b""
        if entry is not None and entry.expires_at > now:
            server_cookie = entry.server_cookie
        else:
            # remember the original so a grant can release it (capped:
            # oldest key out when full, oldest query out within a key)
            if key not in self._held and len(self._held) >= SHIM_HELD_KEYS_CAP:
                del self._held[next(iter(self._held))]
            queue = self._held.setdefault(key, [])
            if len(queue) >= SHIM_HELD_PER_KEY_CAP:
                queue.pop(0)
            queue.append((packet, datagram, now + 2.0))
        stamped = message.copy()
        attach_edns_cookie(stamped, client_cookie, server_cookie)
        self.queries_stamped += 1
        self.node.send(packet.with_message(stamped))
        return Verdict.DROP

    def _inbound(self, packet: Packet, datagram: UdpDatagram, message: Message) -> Verdict:
        cookie = extract_edns_cookie(message)
        if cookie is None:
            return Verdict.ACCEPT
        client_cookie, server_cookie = cookie
        if not server_cookie:
            return Verdict.ACCEPT
        now = self.node.sim.now
        key = (packet.src, packet.dst)
        if key not in self._server_cookies and len(self._server_cookies) >= SHIM_COOKIE_CAP:
            del self._server_cookies[next(iter(self._server_cookies))]
        self._server_cookies[key] = _ServerCookieEntry(server_cookie, now + self.cookie_ttl)
        self.grants_learned += 1
        if message.answers:
            # a real answer that happens to carry the cookie: pass it on
            return Verdict.ACCEPT
        # an answerless grant: re-send held queries with the fresh cookie
        for held_packet, held_datagram, deadline in self._held.pop(key, []):
            if deadline <= now:
                continue
            held_message = held_datagram.payload
            stamped = held_message.copy()
            attach_edns_cookie(stamped, client_cookie, server_cookie)
            self.node.send(held_packet.with_message(stamped))
        return Verdict.DROP
