"""The remote DNS guard: the Figure-4 pipeline as an inline middlebox.

The guard is a bump-in-the-wire router between the Internet and the
protected ANS.  Every packet crossing it goes through ``_transit``:

* **plain UDP queries** (no cookie anywhere) get an *unverified* response —
  a fabricated cookie referral (DNS-based scheme) or a TC=1 redirect
  (TCP-based scheme), chosen by the per-source ``policy`` — rate-limited by
  Rate-Limiter1 so the ANS cannot amplify traffic toward spoofed victims;
* **cookie-bearing queries** (modified-DNS TXT extension, cookie-label
  QNAMEs, or queries to fabricated COOKIE2 addresses) are verified with one
  MD5; failures are dropped on the floor, successes pass Rate-Limiter2 and
  reach the ANS;
* **TCP** to the ANS is terminated by the transparent proxy
  (:mod:`.tcp_scheme`);
* **ANS responses** flow back through the guard, which rewrites the ones
  belonging to fabricated-namespace exchanges (message 5 → message 6,
  message 9 → message 10) and forwards the rest untouched.

All three schemes run simultaneously; requesters self-select by what their
queries carry.  Spoof detection engages only above ``activation_threshold``
requests/sec (None = always on), matching §IV.C's advice to enable checking
only when the offered load exceeds the ANS's capacity.
"""

from __future__ import annotations

import dataclasses
from ipaddress import IPv4Address, IPv4Network
from typing import Callable

from ..dnswire import (
    Header,
    Message,
    Name,
    ResourceRecord,
    attach_cookie,
    extract_cookie,
    keep_prototype,
    make_query,
    make_response,
    make_truncated_response,
    without_cookie,
    RRType,
    ZERO_COOKIE,
)
from ..netsim import (
    BOUNDARY_PRIORITY,
    DnsPayload,
    Hook,
    Node,
    Packet,
    RoutingError,
    UdpDatagram,
    Verdict,
)
from .core import CookieFactory, random_key
from .core.admission import (
    AdmissionControl,
    Policy,
    fallback_policy,
    should_shed,
)
from .core.dns_scheme import (
    CookieSlot,
    answer_from_slot,
    cookie_name_answer,
    cookie_slot,
    decode_cookie_name,
    fabricated_referral,
    referral_from_slot,
)
from .core.ratelimit import (
    RateEstimator,
    UnverifiedResponseLimiter,
    VerifiedRequestLimiter,
)
from .costs import GuardCosts
from .tcp_scheme import TcpProxy

__layer__ = "adapter"

#: Trust boundary for the flow analyser (``repro.analysis.flow``): every
#: packet field entering through these handlers is attacker-controlled
#: until it flows through one of the registered verifiers.  Read
#: statically — never imported.
__trust_boundary__ = {
    "scheme": "remote-guard",
    "entry_points": [
        "RemoteDnsGuard._transit",
        "RemoteDnsGuard._transit_udp",
        "RemoteDnsGuard._handle_ans_query",
        "RemoteDnsGuard._grant_cookie",
        "RemoteDnsGuard._handle_cookie2_query",
        "RemoteDnsGuard._handle_ans_response",
    ],
    "taint_params": ["packet", "datagram", "message"],
    "sanitizers": [
        # the paper's verifiers: one MD5 per check (§IV.B)
        "cookies.verify",
        "cookies.verify_label",
        "cookies.verify_ip_cookie",
        # per-source policy is an explicit operator trust decision
        "policy_for",
        # popping a pending entry proves the response matches soft state
        # the guard itself created for a verified exchange
        "_pending.pop",
    ],
    "sinks": ["_strip_and_forward", "_restore_and_forward", "_safe_send"],
    "assumes": (
        "the ANS address is configuration, not input; fabricated replies "
        "(_send_udp) return to the claimed source and are rate-limited, "
        "so they are challenges, not admissions"
    ),
}

#: Shared-state declaration for the race analyser
#: (``repro.analysis.races``): the cells same-instant handlers may
#: collide on.  Guarded cells are order-sensitive (soft-state tables,
#: mode flags, timer handles); commutative cells are monotone counters.
__shared_state__ = {
    "RemoteDnsGuard": {
        "guarded": [
            "_pending",
            "_answer_cache",
            "down",
            "cookies",
            "estimator",
            "_sweeper",
            # control-plane actuator targets (PR 7): the controller's
            # boundary-lane sweep mutates these, so they are
            # scheduler-visible state like any other soft-state cell
            "_policy",
            "admission",
            "_verified_sources",
        ],
        "commutative": [
            "crashes",
            "queries_seen",
            "cookies_granted",
            "referrals_fabricated",
            "truncations_sent",
            "valid_cookies",
            "invalid_drops",
            "rl1_drops",
            "rl2_drops",
            "overload_drops",
            "responses_transformed",
            "forwarded_inactive",
            "unroutable_replies",
            "admission_shed",
            "watched_rejects",
            "_decision_counters",
            # memos of pure functions of their keys: whichever same-instant
            # handler fills an entry, every later reader derives the same
            # message from it
            "_slots",
            "_restored",
        ],
    },
}

#: State-bound declaration for the memory analyser
#: (``repro.analysis.memory``).  The guard's soft state is the paper's
#: §III design: every table an attacker can address is expiry-swept by
#: the boundary-lane ``_sweep`` *and* hard-capped at its insert sites,
#: so a spoofed flood can displace entries but never grow memory.
__state_bounds__ = {
    "RemoteDnsGuard": {
        "_pending": {
            "bound": 4096,
            "evicted_by": "sweep+cap",
            "keyed_by": "attacker",
        },
        "_answer_cache": {
            "bound": 4096,
            "evicted_by": "sweep+cap",
            "keyed_by": "attacker",
        },
        "_verified_sources": {
            "bound": 8192,
            "evicted_by": "cap",
            "keyed_by": "attacker",
        },
        "_decision_counters": {
            "bound": 64,
            "evicted_by": "lifecycle",
            "keyed_by": "config",
        },
        # dnswire.keep_prototype flushes each whole at PROTOTYPE_CAP
        "_slots": {
            "bound": 4096,
            "evicted_by": "cap",
            "keyed_by": "attacker",
        },
        "_restored": {
            "bound": 4096,
            "evicted_by": "cap",
            "keyed_by": "attacker",
        },
    },
}

#: Hard cap on in-flight exchange state (``_pending``).  The sweep
#: expires entries every second; the cap bounds what a burst can insert
#: *within* a sweep window.  Oldest-first displacement costs the victim
#: one retry, which is the paper's trade: bounded memory, never an
#: unbounded table.
PENDING_CAP = 4096

#: How long an in-flight exchange waits for the ANS before the sweep
#: reclaims it, and how long a transformed answer is replayed from cache.
PENDING_TIMEOUT = 2.0
ANSWER_CACHE_TTL = 0.1


@dataclasses.dataclass(slots=True)
class _Pending:
    """State for one in-flight exchange awaiting the ANS's response."""

    kind: str  # "cookie-name" | "dnat"
    cookie_qname: Name | None
    rewrite_source: IPv4Address | None
    original_qname: Name
    qtype: int
    expires_at: float


@dataclasses.dataclass(slots=True)
class _CachedAnswer:
    records: list[ResourceRecord]
    expires_at: float


class RemoteDnsGuard:
    """The DNS guard deployed in front of an authoritative name server."""

    def __init__(
        self,
        node: Node,
        ans_address: IPv4Address,
        *,
        origin: Name | str = ".",
        cookie_factory: CookieFactory | None = None,
        costs: GuardCosts | None = None,
        cookie_subnet: IPv4Network | str | None = None,
        policy: Policy | Callable[[IPv4Address], Policy] = "dns",
        activation_threshold: float | None = None,
        enabled: bool = True,
        rl1: UnverifiedResponseLimiter | None = None,
        rl2: VerifiedRequestLimiter | None = None,
    ):
        self.node = node
        self.ans_address = ans_address
        self.origin = Name.from_text(origin) if isinstance(origin, str) else origin
        # default key material comes from the simulation's seeded RNG so a
        # run (cookie values, fabricated addresses and all) replays exactly
        self.cookies = (
            cookie_factory
            if cookie_factory is not None
            else CookieFactory(random_key(node.sim.rng))
        )
        self.costs = costs if costs is not None else GuardCosts()
        self.cookie_subnet = (
            IPv4Network(cookie_subnet) if isinstance(cookie_subnet, str) else cookie_subnet
        )
        self._policy = policy
        self.activation_threshold = activation_threshold
        self.enabled = enabled
        self.rl1 = rl1 if rl1 is not None else UnverifiedResponseLimiter()
        self.rl2 = rl2 if rl2 is not None else VerifiedRequestLimiter()
        self.estimator = RateEstimator()
        self._pending: dict[tuple[IPv4Address, int, int], _Pending] = {}
        self._answer_cache: dict[tuple[Name, int], _CachedAnswer] = {}
        #: One prototype per message shape the guard emits — the cookie
        #: slots of messages 2 and 6, the frozen restored query of message
        #: 4 — keyed on case-exact label tuples (never on a ``Name``, whose
        #: equality folds case: a DNS-0x20 requester needs its own casing
        #: echoed), so a shape is serialised once, not once per packet.
        self._slots: dict[tuple, CookieSlot] = {}
        self._restored: dict[tuple, Message] = {}
        #: Optional priority-aware ingress admission, installed by the
        #: control plane via :meth:`set_admission`.  ``None`` means the
        #: guard behaves exactly as before the control plane existed.
        self.admission: AdmissionControl | None = None
        #: ``source -> last verify-success time`` — only maintained while
        #: an admission policy is installed, bounded FIFO.
        self._verified_sources: dict[IPv4Address, float] = {}
        #: Experiment-configured ground truth: sources known legitimate,
        #: so any denial of service to them is a measured false reject.
        #: Populated before the run starts and read-only afterwards.
        self.watch_sources: frozenset[IPv4Address] = frozenset()
        #: True while the guard process is crashed: the box is dead inline
        #: hardware, so *nothing* crosses it (unlike ``enabled=False``,
        #: which degrades it to a plain router).
        self.down = False
        # counters
        self.crashes = 0
        self.queries_seen = 0
        self.cookies_granted = 0
        self.referrals_fabricated = 0
        self.truncations_sent = 0
        self.valid_cookies = 0
        self.invalid_drops = 0
        self.rl1_drops = 0
        self.rl2_drops = 0
        self.overload_drops = 0
        self.responses_transformed = 0
        self.forwarded_inactive = 0
        self.unroutable_replies = 0
        self.admission_shed = 0
        self.watched_rejects = 0

        # observability: pull-based stats snapshot plus per-decision
        # counters/spans via _note(); everything gates on a single None
        # check so a guard without obs pays nothing
        self._obs = node.sim.obs
        self._decision_counters: dict[tuple[str, str], object] = {}
        if self._obs is not None:
            self._obs.add_snapshot(f"guard.{node.name}", self.stats)

        node.filters.append(Hook.FORWARD, target=self._transit)
        node.forward_cost = self.costs.forward
        self.tcp_proxy = TcpProxy(self)
        # Boundary lane: expiry applies at the start of an instant, before
        # any packet delivery sharing the same timestamp.
        self._sweeper = node.sim.schedule(
            1.0, self._sweep, priority=BOUNDARY_PRIORITY
        )

    # -- observability ----------------------------------------------------------------

    def _note(self, scheme: str, outcome: str, parent=None) -> None:
        """Record one guard decision: a labelled counter, plus a point span
        parented onto the requester's span when the packet carries one.

        Observe-only — never schedules, never draws randomness — so the
        event stream is identical whether or not obs is installed.
        """
        obs = self._obs
        if obs is None:
            return
        key = (scheme, outcome)
        counter = self._decision_counters.get(key)
        if counter is None:
            counter = self._decision_counters[key] = obs.counter(
                "guard.decisions", interval=0.1, scheme=scheme, outcome=outcome
            )
        counter.inc()  # type: ignore[attr-defined]
        if parent is not None:
            obs.spans.point(
                "guard.decision", parent=parent, scheme=scheme, outcome=outcome
            )

    # -- policy & activation ---------------------------------------------------------

    def policy_for(self, source: IPv4Address) -> Policy:
        if callable(self._policy):
            return self._policy(source)
        return self._policy

    # -- control-plane actuator seam ---------------------------------------------------
    #
    # The sanctioned mutating entry points for ``repro.control``: analysis
    # rule W002 forbids calling these from ``repro/obs/`` code, so the
    # observe-only contract survives the control plane's existence.

    def set_policy(self, policy: Policy | Callable[[IPv4Address], Policy]) -> None:
        """Hot-switch the challenge scheme for unverified plain queries."""
        self._policy = policy

    def set_admission(self, control: AdmissionControl | None) -> None:
        """Install (or remove, with ``None``) ingress admission control."""
        self.admission = control
        if control is None:
            self._verified_sources.clear()

    def rotate_cookie_key(self, key: bytes) -> None:
        """Install a fresh cookie key on top of the current generation.

        The generation-parity scheme tolerates exactly one outstanding
        previous generation, so callers must budget rotations; the key is
        supplied by the caller (the controller draws from
        ``child_rng("control")``) so rotation never perturbs the core
        event stream's randomness.
        """
        self.cookies.rotate(key)

    def _mark_verified(self, source: IPv4Address) -> None:
        """Remember a verify success for admission priority (bounded FIFO)."""
        if self.admission is None:
            return
        self._verified_sources[source] = self.node.sim.now
        if len(self._verified_sources) > 8192:
            del self._verified_sources[next(iter(self._verified_sources))]

    def _watched_reject(self, source: IPv4Address) -> None:
        if source in self.watch_sources:
            self.watched_rejects += 1

    def is_active(self, now: float) -> bool:
        """Whether spoof detection is currently engaged."""
        if not self.enabled:
            return False
        if self.activation_threshold is None:
            return True
        return self.estimator.rate_now(now) > self.activation_threshold

    @property
    def cookie_host_range(self) -> int:
        """R_y: usable host addresses in the fabricated-IP subnet."""
        if self.cookie_subnet is None:
            return 0
        return max(self.cookie_subnet.num_addresses - 2, 0)

    def cookie2_address(self, source: IPv4Address) -> IPv4Address | None:
        """The fabricated COOKIE2 address for ``source``."""
        r_y = self.cookie_host_range
        if r_y <= 0:
            return None
        y = self.cookies.ip_cookie(source, r_y)
        return IPv4Address(int(self.cookie_subnet.network_address) + 1 + y)

    # -- crash / restart --------------------------------------------------------------

    def crash(self) -> bytes:
        """Kill the guard process mid-flight, losing all soft state.

        Pending exchanges, the fabricated-namespace answer cache, limiter
        fill levels, rate estimates and every proxied TCP connection vanish
        — exactly what a real crash loses.  The cookie key material is the
        one thing a deployment persists (it must survive restarts or every
        outstanding cookie in the field dies with the process); the
        returned blob is that persisted state, to be handed back to
        :meth:`restart`.  Until then the node is dead inline hardware:
        every transit packet is dropped.
        """
        state = self.cookies.export_state()
        self.crashes += 1
        self.down = True
        self._pending.clear()
        self._answer_cache.clear()
        self._verified_sources.clear()
        self.rl1.reset()
        self.rl2.reset()
        self.estimator = RateEstimator(self.estimator.window)
        if self._sweeper is not None:
            self._sweeper.cancel()
            self._sweeper = None
        # in-flight proxied connections die silently — a crashed box
        # sends no RSTs; clients discover via their own retransmit
        # budgets.  (SYN-cookie state is stateless by construction.)
        self.node.tcp.reset_all(send_rst=False)
        return state

    def restart(self, state: bytes | None = None, *, rotate_key: bool = False) -> None:
        """Bring a crashed guard back, optionally rotating the cookie key.

        ``state`` is the blob :meth:`crash` returned (None keeps the live
        factory, for tests that never crashed).  With ``rotate_key=True``
        a fresh key is installed *on top of* the persisted generations, so
        cookies issued before the crash verify under the previous key via
        the generation bit — legitimate clients must see zero false
        rejects across a restart-plus-rotation.
        """
        if state is not None:
            self.cookies = CookieFactory.import_state(
                state, label_hex_digits=self.cookies.label_hex_digits
            )
        if rotate_key:
            self.cookies.rotate(random_key(self.node.sim.rng))
        self.down = False
        if self._sweeper is None:
            self._sweeper = self.node.sim.schedule(
            1.0, self._sweep, priority=BOUNDARY_PRIORITY
        )

    # -- transit hook ---------------------------------------------------------------

    def _transit(self, packet: Packet) -> Verdict:
        if self.down:
            return Verdict.DROP
        segment = packet.segment
        if isinstance(segment, UdpDatagram):
            return self._transit_udp(packet, segment)
        # TCP: terminate connections aimed at the protected ANS when active
        if packet.dst == self.ans_address and segment.dport == 53:
            return Verdict.DELIVER if self.enabled else Verdict.ACCEPT
        if packet.src == self.ans_address:
            return Verdict.ACCEPT
        # TCP already terminated here continues to arrive addressed to the
        # ANS; anything else is unrelated transit
        return Verdict.ACCEPT

    def _transit_udp(self, packet: Packet, datagram: UdpDatagram) -> Verdict:
        if not self.enabled:
            # hard-disabled (the paper's "protection disabled" baseline):
            # the guard is nothing but a router
            return Verdict.ACCEPT
        # responses coming back from the ANS
        if packet.src == self.ans_address and datagram.sport == 53:
            return self._handle_ans_response(packet, datagram)
        # queries toward the protected server or the fabricated subnet
        to_ans = packet.dst == self.ans_address and datagram.dport == 53
        to_cookie_subnet = (
            self.cookie_subnet is not None
            and packet.dst in self.cookie_subnet
            and datagram.dport == 53
        )
        if not (to_ans or to_cookie_subnet):
            return Verdict.ACCEPT
        now = self.node.sim.now
        self.queries_seen += 1
        self.estimator.observe(now)
        active = self.is_active(now)
        # priority-aware admission: when the control plane has engaged
        # shedding and the CPU backlog is past the configured fraction of
        # the queue limit, unverified sources are shed *here* — before any
        # payload parsing — at bare per-packet cost, so verified traffic
        # keeps its CPU headroom instead of the FIFO dropping blindly
        adm = self.admission
        if adm is not None:
            cpu = self.node.cpu
            if should_shed(
                adm,
                backlog=cpu.backlog,
                queue_limit=cpu.queue_limit,
                last_verified=self._verified_sources.get(packet.src),
                now=now,
            ):
                self.admission_shed += 1
                self._watched_reject(packet.src)
                self._charge(self.costs.per_packet)
                self._note("admission", "shed", packet.span)
                return Verdict.DROP
        payload = datagram.payload
        if not isinstance(payload, DnsPayload):
            # not parseable as DNS at all
            if active:
                self._charge(self.costs.drop_invalid)
                self.invalid_drops += 1
                return Verdict.DROP
            self.forwarded_inactive += 1
            return Verdict.ACCEPT
        message = payload.message
        if not message.is_query() or not message.questions:
            if active:
                self._charge(self.costs.drop_invalid)
                self.invalid_drops += 1
                return Verdict.DROP
            self.forwarded_inactive += 1
            return Verdict.ACCEPT
        # the guard's fabricated namespace (cookie grants, cookie-name
        # queries, COOKIE2 addresses) is served regardless of activation —
        # clients hold long-TTL references into it; only *challenges* to
        # plain queries and *drops* of invalid cookies are gated by the
        # activation threshold (handled inside the handlers via `active`)
        if to_cookie_subnet:
            self._handle_cookie2_query(packet, datagram, message, active)
            return Verdict.DROP
        return self._handle_ans_query(packet, datagram, message, active)

    # -- query paths -------------------------------------------------------------------

    def _handle_ans_query(
        self, packet: Packet, datagram: UdpDatagram, message: Message, active: bool = True
    ) -> Verdict:
        now = self.node.sim.now
        src = packet.src

        cookie = extract_cookie(message)
        if cookie is not None:
            # modified-DNS scheme
            if cookie == ZERO_COOKIE:
                self._grant_cookie(packet, datagram, message)
                return Verdict.DROP
            if self.cookies.verify(cookie, src):
                self.valid_cookies += 1
                self._mark_verified(src)
                if active and not self.rl2.allow(src, now):
                    self.rl2_drops += 1
                    self._watched_reject(src)
                    self._note("modified", "rl2_drop", packet.span)
                    return Verdict.DROP
                self._note("modified", "forward", packet.span)
                self._strip_and_forward(packet, message)
                return Verdict.DROP
            if active:
                self.invalid_drops += 1
                self._watched_reject(src)
                self._charge(self.costs.drop_invalid)
                self._note("modified", "invalid_drop", packet.span)
                return Verdict.DROP
            # no detection while inactive: pass it through, cookie stripped.
            # Unverified admission is by design below the activation
            # threshold (§IV.C): checking only engages once offered load
            # exceeds what the ANS can absorb.
            self._note("modified", "forward", packet.span)
            self._strip_and_forward(packet, message)  # repro: allow[T001] inactive-mode pass-through, gated by activation threshold
            return Verdict.DROP

        decoded = decode_cookie_name(
            message.question.qname,
            self.origin,
            cookie_length=self.cookies.label_cookie_length,
        )
        if decoded is not None:
            # DNS-based scheme, message 3: the fabricated namespace must be
            # served even while inactive — clients cache these names with
            # long TTLs — but verification only gates it while active
            if not active or self.cookies.verify_label(decoded.cookie_label, src):
                if active:
                    self.valid_cookies += 1
                    self._mark_verified(src)
                    if not self.rl2.allow(src, now):
                        self.rl2_drops += 1
                        self._watched_reject(src)
                        self._note("ns_name", "rl2_drop", packet.span)
                        return Verdict.DROP
                self._note("ns_name", "forward", packet.span)
                self._restore_and_forward(packet, datagram, message, decoded)
                return Verdict.DROP
            self.invalid_drops += 1
            self._watched_reject(src)
            self._charge(self.costs.drop_invalid)
            self._note("ns_name", "invalid_drop", packet.span)
            return Verdict.DROP

        # plain query from an unverified requester: only challenged while
        # detection is engaged
        if not active:
            self.forwarded_inactive += 1
            return Verdict.ACCEPT
        action = self.policy_for(src)
        if action == "forward":
            self._note("plain", "forward", packet.span)
            self._submit(self.costs.forward, self._safe_send, packet)
            return Verdict.DROP
        if action == "drop":
            # the cookie/label checks above already ran, so a policy drop
            # still costs a verification's worth of CPU
            self.invalid_drops += 1
            self._watched_reject(src)
            self._charge(self.costs.drop_invalid)
            self._note("plain", "policy_drop", packet.span)
            return Verdict.DROP
        if not self.rl1.allow(src, now):
            self.rl1_drops += 1
            self._watched_reject(src)
            self._charge(self.costs.per_packet)
            self._note("plain", "rl1_drop", packet.span)
            return Verdict.DROP
        if action == "dns":
            reply = self._referral(message, self.cookies.label_cookie(src))
            if reply is not None:
                self.referrals_fabricated += 1
                self._note("ns_name", "challenge", packet.span)
                self._submit(
                    self.costs.fabricate_response,
                    self._send_udp,
                    reply,
                    src,
                    datagram.sport,
                    packet.dst,
                )
                return Verdict.DROP
            # name does not fit in a cookie label: escalate along the
            # core's scheme chain (dns -> tcp)
            action = fallback_policy(action)
        self.truncations_sent += 1
        self._note("tcp", "challenge", packet.span)
        self._submit(
            self.costs.truncate_response,
            self._send_udp,
            make_truncated_response(message),
            src,
            datagram.sport,
            packet.dst,
        )
        return Verdict.DROP

    def _grant_cookie(self, packet: Packet, datagram: UdpDatagram, message: Message) -> None:
        """Messages 2 -> 3 of Figure 3a: answer with the requester's cookie."""
        now = self.node.sim.now
        if not self.rl1.allow(packet.src, now):
            self.rl1_drops += 1
            self._charge(self.costs.per_packet)
            self._note("modified", "rl1_drop", packet.span)
            return
        grant = make_response(message)
        attach_cookie(grant, self.cookies.cookie(packet.src))
        self.cookies_granted += 1
        self._note("modified", "grant", packet.span)
        self._submit(
            self.costs.fabricate_response,
            self._send_udp,
            grant,
            packet.src,
            datagram.sport,
            packet.dst,
        )

    def _referral(self, query: Message, label: bytes) -> Message | None:
        """Message 2 under ``label``; None when the name does not fit.

        One-question queries share a cookie slot per question; the first
        reply for a question is built the reference way and becomes it.
        """
        if len(query.questions) != 1:
            return fabricated_referral(query, self.origin, label)
        question = query.questions[0]
        key = ("referral", question.qname.labels, question.qtype, question.qclass, len(label))
        slot = self._slots.get(key)
        if slot is not None:
            return referral_from_slot(slot, query, label)
        reply = fabricated_referral(query, self.origin, label)
        if reply is not None:
            target = reply.authorities[0].rdata.target  # type: ignore[union-attr]
            slot = cookie_slot(reply, target, len(label))
            if slot is not None:
                keep_prototype(self._slots, key, slot)
        return reply

    def _strip_and_forward(self, packet: Packet, message: Message) -> None:
        """Validated modified-DNS query: remove the cookie, pass to the ANS."""
        forwarded = packet.with_message(without_cookie(message))
        self._submit(self.costs.validate_and_forward, self._safe_send, forwarded)

    def _restore_and_forward(
        self, packet: Packet, datagram: UdpDatagram, message: Message, decoded
    ) -> None:
        """Message 3 -> 4: restore the original question toward the ANS."""
        key = (packet.src, datagram.sport, message.header.msg_id)
        if len(self._pending) >= PENDING_CAP:
            del self._pending[next(iter(self._pending))]
        self._pending[key] = _Pending(
            kind="cookie-name",
            cookie_qname=message.question.qname,
            rewrite_source=None,
            original_qname=decoded.original_qname,
            qtype=message.question.qtype,
            expires_at=self.node.sim.now + PENDING_TIMEOUT,
        )
        restored = self._restored_query(
            decoded.original_qname, message.question.qtype, message.header.msg_id
        )
        forwarded = packet.with_message(restored, dst=self.ans_address, dport=53)
        self._submit(self.costs.validate_and_forward, self._safe_send, forwarded)

    def _restored_query(self, qname: Name, qtype: int, msg_id: int) -> Message:
        """Message 4, ``make_query(qname, qtype, msg_id=msg_id)``: one frozen
        query per question restored, re-headed for each requester."""
        key = (qname.labels, qtype)
        prototype = self._restored.get(key)
        if prototype is None:
            query = make_query(qname, qtype, msg_id=msg_id).freeze()
            return keep_prototype(self._restored, key, query)
        return prototype.with_header(Header(msg_id=msg_id))

    def _handle_cookie2_query(
        self, packet: Packet, datagram: UdpDatagram, message: Message, active: bool = True
    ) -> None:
        """Message 7: a query addressed to a fabricated COOKIE2 address.

        Served regardless of activation (clients cache COOKIE2 addresses
        with long TTLs); the cookie check and rate limit apply while active.
        """
        now = self.node.sim.now
        r_y = self.cookie_host_range
        y = int(packet.dst) - int(self.cookie_subnet.network_address) - 1
        if active:
            if not self.cookies.verify_ip_cookie(y, packet.src, r_y):
                self.invalid_drops += 1
                self._watched_reject(packet.src)
                self._charge(self.costs.drop_invalid)
                self._note("fabricated", "invalid_drop", packet.span)
                return
            self.valid_cookies += 1
            self._mark_verified(packet.src)
            if not self.rl2.allow(packet.src, now):
                self.rl2_drops += 1
                self._watched_reject(packet.src)
                self._note("fabricated", "rl2_drop", packet.span)
                return
        question = message.question
        cached = self._answer_cache.get((question.qname, question.qtype))
        if cached is not None and cached.expires_at > now:
            reply = make_response(message, authoritative=True)
            reply.answers.extend(cached.records)
            self._note("fabricated", "cached_answer", packet.span)
            self._submit(
                self.costs.serve_cached_answer,
                self._send_udp,
                reply,
                packet.src,
                datagram.sport,
                packet.dst,
            )
            return
        # no cached answer: DNAT the query to the real ANS (messages 8/9)
        key = (packet.src, datagram.sport, message.header.msg_id)
        if len(self._pending) >= PENDING_CAP:
            del self._pending[next(iter(self._pending))]
        self._pending[key] = _Pending(
            kind="dnat",
            cookie_qname=None,
            rewrite_source=packet.dst,
            original_qname=question.qname,
            qtype=question.qtype,
            expires_at=now + PENDING_TIMEOUT,
        )
        self._note("fabricated", "forward", packet.span)
        forwarded = packet.with_message(message, dst=self.ans_address, dport=53)
        # while inactive the COOKIE2 namespace is served without the IP
        # check (clients hold long-TTL fabricated addresses, §IV.C); the
        # active path above verified before reaching here
        self._submit(self.costs.validate_and_forward, self._safe_send, forwarded)  # repro: allow[T001] inactive-mode COOKIE2 service, gated by activation threshold

    # -- response path -------------------------------------------------------------------

    def _handle_ans_response(self, packet: Packet, datagram: UdpDatagram) -> Verdict:
        payload = datagram.payload
        if not isinstance(payload, DnsPayload):
            return Verdict.ACCEPT
        message = payload.message
        key = (packet.dst, datagram.dport, message.header.msg_id)
        pending = self._pending.pop(key, None)
        if pending is None:
            return Verdict.ACCEPT
        if pending.kind == "dnat":
            rewritten = packet.with_message(message, src=pending.rewrite_source)
            self.responses_transformed += 1
            self._note("fabricated", "response_rewrite", packet.span)
            self._submit(self.costs.transform_response, self._safe_send, rewritten)
            return Verdict.DROP

        # cookie-name exchange: message 5 -> message 6
        addresses: list = self._referral_addresses(message, pending.original_qname)
        if not addresses:
            # non-referral answer: fabricate COOKIE2 and cache the real answer.
            # With no fabricated subnet configured this variant cannot run;
            # answer with the ANS's own address so the requester returns
            addresses = [self.cookie2_address(packet.dst) or self.ans_address]
            if message.answers:
                self._answer_cache[(pending.original_qname, pending.qtype)] = _CachedAnswer(
                    list(message.answers), self.node.sim.now + ANSWER_CACHE_TTL
                )
                if len(self._answer_cache) > 4096:
                    self._answer_cache.pop(next(iter(self._answer_cache)))
        reply = self._cookie_name_answer(message.header.msg_id, pending.cookie_qname, addresses)
        self.responses_transformed += 1
        self._note("ns_name", "response_rewrite", packet.span)
        self._submit(
            self.costs.transform_response,
            self._send_udp,
            reply,
            packet.dst,
            datagram.dport,
            packet.src,
        )
        return Verdict.DROP

    def _cookie_name_answer(self, msg_id: int, cookie_qname: Name, addresses: list) -> Message:
        """Message 6: ``addresses`` (glue records, or one fabricated
        address) as the answer to the A query for ``cookie_qname``.

        The slot is per question-minus-cookie *and* per address set — the
        glue is the ANS's to change, COOKIE2 is per requester.
        """
        width = self.cookies.label_cookie_length
        labels = cookie_qname.labels
        key = (
            "answer",
            labels[0][width:],
            labels[1:],
            tuple(
                (item.ttl, item.rdata) if isinstance(item, ResourceRecord) else item
                for item in addresses
            ),
        )
        slot = self._slots.get(key)
        if slot is not None:
            return answer_from_slot(slot, msg_id, cookie_qname)
        reply = cookie_name_answer(make_query(cookie_qname, RRType.A, msg_id=msg_id), addresses)
        slot = cookie_slot(reply, cookie_qname, width)
        if slot is not None:
            keep_prototype(self._slots, key, slot)
        return reply

    @staticmethod
    def _referral_addresses(message: Message, qname: Name) -> list[ResourceRecord]:
        """Glue A records if ``message`` is a referral for ``qname``; else []."""
        if message.answers:
            return []
        ns_targets = {
            rr.rdata.target  # type: ignore[union-attr]
            for rr in message.authorities
            if rr.rtype == RRType.NS and qname.is_subdomain_of(rr.name)
        }
        if not ns_targets:
            return []
        return [
            rr
            for rr in message.additionals
            if rr.rtype == RRType.A and rr.name in ns_targets
        ]

    # -- plumbing ---------------------------------------------------------------------------

    def _send_udp(self, message: Message, dst: IPv4Address, dport: int, src: IPv4Address) -> None:
        """Send a guard-fabricated reply, spoofing the queried address."""
        packet = Packet(src=src, dst=dst, segment=UdpDatagram(53, dport, DnsPayload(message)))
        self._safe_send(packet)

    def _safe_send(self, packet: Packet) -> None:
        """Send, treating unroutable destinations (spoofed sources whose
        address goes nowhere) as silent drops — the Internet would eat them."""
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

    def _sweep(self) -> None:
        now = self.node.sim.now
        expired = [key for key, entry in self._pending.items() if entry.expires_at <= now]
        for key in expired:
            del self._pending[key]
        dead = [key for key, entry in self._answer_cache.items() if entry.expires_at <= now]
        for key in dead:
            del self._answer_cache[key]
        self._sweeper = self.node.sim.schedule(
            1.0, self._sweep, priority=BOUNDARY_PRIORITY
        )

    @property
    def pending_exchanges(self) -> int:
        return len(self._pending)

    def stats(self) -> dict[str, int | float]:
        """A point-in-time snapshot of the guard's operational counters."""
        return {
            "crashes": self.crashes,
            "queries_seen": self.queries_seen,
            "cookies_granted": self.cookies_granted,
            "referrals_fabricated": self.referrals_fabricated,
            "truncations_sent": self.truncations_sent,
            "valid_cookies": self.valid_cookies,
            "invalid_drops": self.invalid_drops,
            "rl1_drops": self.rl1_drops,
            "rl2_drops": self.rl2_drops,
            "overload_drops": self.overload_drops,
            "responses_transformed": self.responses_transformed,
            "forwarded_inactive": self.forwarded_inactive,
            "unroutable_replies": self.unroutable_replies,
            "admission_shed": self.admission_shed,
            "watched_rejects": self.watched_rejects,
            "verified_sources": len(self._verified_sources),
            "pending_exchanges": self.pending_exchanges,
            "cookie_computations": self.cookies.computations,
            "cpu_busy_seconds": self.node.cpu.completed_busy_seconds(),
            "rl1_allowed": self.rl1.allowed,
            "rl1_denied": self.rl1.denied,
            "rl2_allowed": self.rl2.allowed,
            "rl2_denied": self.rl2.denied,
            "tcp_requests_proxied": self.tcp_proxy.requests_proxied,
            "tcp_connections_accepted": self.tcp_proxy.connections_accepted,
            "tcp_connections_reaped": self.tcp_proxy.connections_reaped,
        }
