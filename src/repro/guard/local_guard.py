"""The local DNS guard: the LRS-side half of the modified-DNS scheme (§III.D).

Deployed inline in front of an unmodified LRS, it makes the LRS
cookie-capable without touching its software:

* outbound DNS queries are held while the guard fetches the destination
  server's cookie (message 2: the same question with an all-zero cookie,
  sized identically to the grant so there is no amplification), then
  released with the cookie attached (message 4);
* once a cookie is cached (keyed by server *and* client address, since the
  cookie binds to the source IP), queries flow through with one in-place
  modification and zero extra round trips;
* inbound cookie grants are consumed; all other responses pass untouched.
"""

from __future__ import annotations

from ..dnswire import (
    Message,
    UNSCANNED,
    extract_cookie,
    with_cookie,
    ZERO_COOKIE,
)
from ..netsim import BOUNDARY_PRIORITY, Hook, Node, Packet, UdpDatagram, Verdict
from .core.local_policy import (
    DEFAULT_COOKIE_TTL,
    PENDING_TIMEOUT,
    PROBE_RETRY_INTERVAL,
    UNCOOKIED_TTL,
    CachedCookie as _CachedCookie,
    outbound_action,
)

__layer__ = "adapter"

#: Trust boundary for the flow analyser (``repro.analysis.flow``).  The
#: local guard makes no admission decisions — it stamps the resolver's
#: *own* outbound queries and consumes grants addressed to it — so it
#: declares taint sources but no sinks: nothing it emits grants an
#: attacker access to a protected resource.  A forged grant can at worst
#: plant a cookie the remote guard will reject (one wasted round trip).
__trust_boundary__ = {
    "scheme": "local-guard",
    "entry_points": [
        "LocalDnsGuard._transit",
        "LocalDnsGuard._outbound_query",
        "LocalDnsGuard._inbound_response",
    ],
    "taint_params": ["packet", "datagram", "message"],
    "sinks": [],
    "assumes": (
        "outbound queries originate from the on-path LRS; inbound grants "
        "are verified end-to-end by the remote guard, not here (§III.D)"
    ),
}

#: Shared-state declaration for the race analyser
#: (``repro.analysis.races``).
__shared_state__ = {
    "LocalDnsGuard": {
        "guarded": ["_cookies", "_held", "_uncookied", "_last_probe", "_sweeper"],
        "commutative": [
            "cookies_cached",
            "queries_stamped",
            "queries_held",
            "held_dropped",
        ],
    },
}

#: State-bound declaration for the memory analyser
#: (``repro.analysis.memory``).  Every key is a (server, client) pair
#: taken from the on-path LRS's *own* outbound queries — internal
#: provenance, not attacker-spoofable — and every table is drained by
#: the boundary-lane ``_sweep`` (plus protocol-driven removal when a
#: grant releases a held queue).
__state_bounds__ = {
    "LocalDnsGuard": {
        "_cookies": {"bound": 4096, "evicted_by": "sweep", "keyed_by": "internal"},
        "_held": {
            "bound": 4096,
            "evicted_by": "sweep+lifecycle",
            "keyed_by": "internal",
        },
        "_uncookied": {"bound": 4096, "evicted_by": "sweep", "keyed_by": "internal"},
        "_last_probe": {"bound": 4096, "evicted_by": "sweep", "keyed_by": "internal"},
    },
}

#: (server, client) address integers
_CacheKey = tuple[int, int]


class LocalDnsGuard:
    """Inline middlebox adding modified-DNS cookies for the LRS behind it."""

    def __init__(
        self,
        node: Node,
        *,
        cookie_ttl: float = DEFAULT_COOKIE_TTL,
        cache_cookies: bool = True,
    ):
        """``cache_cookies=False`` fetches a fresh cookie for every query —
        the worst-case ("cache miss") behaviour measured in Table III."""
        self.node = node
        self.cookie_ttl = cookie_ttl
        self.cache_cookies = cache_cookies
        self._cookies: dict[_CacheKey, _CachedCookie] = {}
        self._held: dict[_CacheKey, list[tuple[Packet, UdpDatagram, float]]] = {}
        #: servers observed answering probes without a cookie grant — no
        #: remote guard is present there, so queries pass through unchanged
        self._uncookied: dict[_CacheKey, float] = {}
        self._last_probe: dict[_CacheKey, float] = {}
        self.cookies_cached = 0
        self.queries_stamped = 0
        self.queries_held = 0
        self.held_dropped = 0
        node.filters.append(Hook.FORWARD, target=self._transit)
        # Boundary lane: expiry applies at the start of an instant, before
        # any packet delivery sharing the same timestamp.
        self._sweeper = node.sim.schedule(
            1.0, self._sweep, priority=BOUNDARY_PRIORITY
        )

    # -- transit hook -----------------------------------------------------------

    def _transit(self, packet: Packet) -> Verdict:
        segment = packet.segment
        if not isinstance(segment, UdpDatagram):
            return Verdict.ACCEPT
        message = segment.payload
        if type(message) is bytes:
            return Verdict.ACCEPT
        response = message.header.qr
        if segment.dport == 53 and not response:
            return self._outbound_query(packet, segment, message)
        if segment.sport == 53 and response:
            return self._inbound_response(packet, segment, message)
        return Verdict.ACCEPT

    # -- outbound ---------------------------------------------------------------

    def _outbound_query(
        self, packet: Packet, datagram: UdpDatagram, message: Message
    ) -> Verdict:
        cookie = message._cookie  # extract_cookie's memo, read inline
        if cookie is UNSCANNED:
            cookie = extract_cookie(message)
        if cookie is not None:
            return Verdict.ACCEPT  # already cookie-capable upstream of us
        now = self.node.sim.now
        key = (packet.dst, packet.src)
        queue = self._held.get(key, ())
        action = outbound_action(
            uncookied_until=self._uncookied.get(key, 0.0),
            cached=self._cookies.get(key),
            now=now,
            cache_cookies=self.cache_cookies,
            held_count=len(queue) + 1,
            last_probe=self._last_probe.get(key, -1.0),
        )
        if action == "forward":
            return Verdict.ACCEPT  # that server has no remote guard
        if action == "stamp":
            self._send_with_cookie(packet, message, self._cookies[key].cookie)
            self.queries_stamped += 1
            return Verdict.DROP
        # no (usable) cookie: hold the query and ask for one.  Probes are
        # re-sent ("hold-probe") if the previous one (or its grant) was lost.
        self._held.setdefault(key, []).append((packet, datagram, now + PENDING_TIMEOUT))
        self.queries_held += 1
        if action == "hold-probe":
            self._last_probe[key] = now
            # message 2: the original question carrying an all-zero cookie
            self._send_with_cookie(packet, message, ZERO_COOKIE)
        return Verdict.DROP

    def _send_with_cookie(self, packet: Packet, message: Message, cookie: bytes) -> None:
        self.node.send(packet.with_message(with_cookie(message, cookie)))

    # -- inbound ----------------------------------------------------------------

    def _inbound_response(
        self, packet: Packet, datagram: UdpDatagram, message: Message
    ) -> Verdict:
        cookie = message._cookie  # extract_cookie's memo, read inline
        if cookie is UNSCANNED:
            cookie = extract_cookie(message)
        if cookie is None or cookie == ZERO_COOKIE:
            self._note_plain_response(packet, message)
            return Verdict.ACCEPT
        # a cookie grant (message 3): cache it and release held queries
        now = self.node.sim.now
        key = (packet.src, packet.dst)
        if self.cache_cookies:
            self._cookies[key] = _CachedCookie(cookie, now + self.cookie_ttl)
            self.cookies_cached += 1
            released = self._held.pop(key, [])
        else:
            # per-query cookies: release exactly the oldest held query
            queue = self._held.get(key, [])
            released = [queue.pop(0)] if queue else []
            if not queue:
                self._held.pop(key, None)
        for held_packet, held_datagram, deadline in released:
            if deadline > now:
                held_message = held_datagram.payload
                self._send_with_cookie(held_packet, held_message, cookie)
                self.queries_stamped += 1
            else:
                self.held_dropped += 1
        return Verdict.DROP

    def _note_plain_response(self, packet: Packet, message: Message) -> None:
        """A cookie probe was answered *without* a grant: the server has no
        remote guard.  Remember that and release held queries unchanged."""
        key = (packet.src, packet.dst)
        queue = self._held.get(key)
        if not queue:
            return
        if not any(
            item[1].payload.header.msg_id == message.header.msg_id
            for item in queue
        ):
            return
        now = self.node.sim.now
        self._uncookied[key] = now + UNCOOKIED_TTL
        for held_packet, held_datagram, deadline in self._held.pop(key):
            # the probe's answer already satisfies the matching query; only
            # re-send the others, unmodified
            held_message = held_datagram.payload
            if held_message.header.msg_id == message.header.msg_id:
                continue
            if deadline > now:
                self.node.send(held_packet.with_message(held_message))
            else:
                self.held_dropped += 1

    # -- maintenance --------------------------------------------------------------

    def _sweep(self) -> None:
        now = self.node.sim.now
        for key, queue in list(self._held.items()):
            live = [item for item in queue if item[2] > now]
            self.held_dropped += len(queue) - len(live)
            if live:
                self._held[key] = live
            else:
                del self._held[key]
                # the grant was lost: retry on the next query
        expired = [key for key, entry in self._cookies.items() if entry.expires_at <= now]
        for key in expired:
            del self._cookies[key]
        stale = [key for key, deadline in self._uncookied.items() if deadline <= now]
        for key in stale:
            del self._uncookied[key]
        # probe timestamps only matter while queries are held for the key;
        # once the queue is gone and the retry window has passed, a missing
        # entry and a stale one behave identically, so drop the entry
        stale_probes = [
            key
            for key, stamped in self._last_probe.items()
            if key not in self._held and now - stamped >= PENDING_TIMEOUT
        ]
        for key in stale_probes:
            del self._last_probe[key]
        self._sweeper = self.node.sim.schedule(
            1.0, self._sweep, priority=BOUNDARY_PRIORITY
        )

    def cached_cookie(self, server: int, client: int) -> bytes | None:
        entry = self._cookies.get((server, client))
        if entry is None or entry.expires_at <= self.node.sim.now:
            return None
        return entry.cookie

    def flush(self) -> None:
        self._cookies.clear()
