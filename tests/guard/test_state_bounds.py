"""Every attacker-keyed ``__state_bounds__`` entry, driven past its bound.

A declaration's ``bound`` is the most entries its table may ever hold
(DESIGN.md, "State-exhaustion model").  Each driver below offers the
table more distinct attacker-chosen keys than that, through the code
path a spoofed flood takes, and yields ``len(table)`` after every
insert; the test asserts the table fills to exactly the declared bound
and never past it.  So removing a cap, or declaring a number the code
does not enforce, fails here.  A table whose bound is too large to
drive in a unit test (``SLOW_BOUND``) names the constant that caps it:
the constant must equal the declared bound, and the drive runs against
a small patched value of it.

:func:`test_every_attacker_keyed_bound_has_a_driver` reads the
declarations the way the static memory rules do, so a new attacker-keyed
table without a driver fails the suite.
"""

from functools import cache
from ipaddress import IPv4Address

import pytest

from repro.analysis.declarations import iter_declared_classes
from repro.dnswire import Name, a_record, attach_cookie, make_query, make_response
from repro.experiments.testbed import ANS_ADDRESS, GuardTestbed
from repro.guard import AdmissionControl, encode_cookie_name
from repro.guard.core import UnverifiedResponseLimiter, VerifiedRequestLimiter
from repro.guard.rfc7873 import EdnsCookieClientShim, attach_edns_cookie
from repro.netsim import DnsPayload, Link, Node, Packet, Simulator, UdpDatagram
from repro.netsim import tcp as tcp_module
from repro.netsim.tcp import TcpConnection

#: Keys offered beyond the declared bound.
EXTRA = 64
#: Bounds at or above this are driven against a patched cap.
SLOW_BOUND = 65536
#: The patched cap for those.
SMALL_CAP = 256
#: Base of the distinct spoofed source addresses the drivers use.
SOURCES = 0x0A100000
#: One requester outside that range, for the per-name drives.
REQUESTER = IPv4Address("10.15.0.1")
COOKIE2 = IPv4Address("198.18.0.5")  # inside the testbed's cookie subnet


def _udp(src, dst, sport, dport, message):
    return Packet(src, dst, UdpDatagram(sport, dport, DnsPayload(message)))


# -- guard.core.ratelimit: RL1 (and its heavy-hitter tracker) and RL2 ---------


def _tracker(bound):
    # RL1's tracker as RemoteDnsGuard builds it: the limiter's defaults
    tracker = UnverifiedResponseLimiter().tracker
    for n in range(bound + EXTRA):
        tracker.observe(SOURCES + n)
        yield tracker


def drive_tracker_counts(bound):
    for tracker in _tracker(bound):
        yield len(tracker._counts)


def drive_tracker_heap(bound):
    for tracker in _tracker(bound):
        yield len(tracker._min_heap)


def _drive_buckets(limiter, bound):
    for n in range(bound + EXTRA):
        limiter.allow(SOURCES + n, 0.0)
        yield len(limiter._buckets)


def drive_rl1_buckets(bound):
    return _drive_buckets(UnverifiedResponseLimiter(), bound)


def drive_rl2_buckets(bound):
    return _drive_buckets(VerifiedRequestLimiter(), bound)


# -- guard.pipeline: RemoteDnsGuard, fed through its FORWARD hook -------------


def _dnat(guard, n):
    """A query from the ``n``-th source to a COOKIE2 address, which the
    guard forwards to the ANS (messages 7-8) and remembers."""
    query = make_query("www.foo.com", msg_id=1)
    guard._transit(_udp(IPv4Address(SOURCES + n), COOKIE2, 5353, 53, query))


def _referral(guard, n):
    """A plain query for the ``n``-th name, which an active guard answers
    with a fabricated referral (message 2)."""
    query = make_query(f"h{n}.foo.com", msg_id=1)
    guard._transit(_udp(REQUESTER, ANS_ADDRESS, 5353, 53, query))


def _cookie_name(guard, n, *, answered):
    """Message 3 for the ``n``-th name, restored toward the ANS (message 4);
    with ``answered`` the ANS's answer comes back through (message 5)."""
    original = Name.from_text(f"h{n}.foo.com")
    label = guard.cookies.label_cookie(int(REQUESTER))
    qname = encode_cookie_name(label, original, guard.origin)
    msg_id = n & 0xFFFF
    guard._transit(_udp(REQUESTER, ANS_ADDRESS, 5353, 53, make_query(qname, msg_id=msg_id)))
    if answered:
        answer = make_response(make_query(original, msg_id=msg_id), authoritative=True)
        answer.answers.append(a_record(original, "198.51.100.80"))
        guard._transit(_udp(ANS_ADDRESS, REQUESTER, 53, 5353, answer))


def drive_pending(bound):
    """Both insert sites in turn, so a cap missing at either one lets the
    table grow past the bound."""
    guard = GuardTestbed(activation_threshold=1e9).guard
    for n in range(bound + EXTRA):
        if n % 2:
            _cookie_name(guard, n, answered=False)
        else:
            _dnat(guard, n)
        yield len(guard._pending)


def drive_restored(bound):
    guard = GuardTestbed(activation_threshold=1e9).guard
    for n in range(bound + EXTRA):
        _cookie_name(guard, n, answered=False)
        yield len(guard._restored)


def drive_answer_cache(bound):
    guard = GuardTestbed(activation_threshold=1e9).guard
    for n in range(bound + EXTRA):
        _cookie_name(guard, n, answered=True)
        yield len(guard._answer_cache)


def drive_slots(bound):
    """One slot per question, filled through one shape (the referral,
    message 2), then the other (the cookie-name answer, message 6), then
    the first again.  A full table is flushed whole, so this is what makes
    each insert site meet a full table."""
    guard = GuardTestbed().guard
    for n in range(2 * bound + EXTRA):
        if bound <= n < 2 * bound:
            _cookie_name(guard, n, answered=True)
        else:
            _referral(guard, n)
        yield len(guard._slots)


def drive_verified_sources(bound):
    """Valid modified-DNS cookies from distinct sources, admission on."""
    guard = GuardTestbed(activation_threshold=1e9).guard
    guard.set_admission(AdmissionControl())
    for n in range(bound + EXTRA):
        src = SOURCES + n
        query = make_query("www.foo.com", msg_id=1)
        attach_cookie(query, guard.cookies.cookie(src))
        guard._transit(_udp(IPv4Address(src), ANS_ADDRESS, 5353, 53, query))
        yield len(guard._verified_sources)


# -- guard.rfc7873: the LRS-side shim -----------------------------------------


def _shim():
    sim = Simulator(seed=0)
    node = Node(sim, "shim")
    node.add_address("10.0.0.1")
    upstream = Node(sim, "upstream")
    upstream.add_address("203.0.113.1")
    node.set_default_route(Link(sim, node, upstream, delay=0.0001))
    return EdnsCookieClientShim(node)


def drive_shim_held(bound):
    """Queries from distinct clients with no server cookie learned yet are
    held for the grant."""
    shim = _shim()
    query = make_query("www.foo.com", msg_id=1)
    for n in range(bound + EXTRA):
        shim._transit(_udp(IPv4Address(SOURCES + n), ANS_ADDRESS, 5353, 53, query))
        yield len(shim._held)


def drive_shim_server_cookies(bound):
    """Answers carrying a server cookie, to distinct clients."""
    shim = _shim()
    answer = make_response(make_query("www.foo.com", msg_id=1))
    answer.answers.append(a_record("www.foo.com", "198.51.100.80"))
    attach_edns_cookie(answer, b"\x01" * 8, b"\x02" * 16)
    for n in range(bound + EXTRA):
        shim._transit(_udp(ANS_ADDRESS, IPv4Address(SOURCES + n), 53, 5353, answer))
        yield len(shim._server_cookies)


# -- TCP: the guard's proxy and its stack -------------------------------------


def _connections(stack, bound):
    for n in range(bound + EXTRA):
        yield TcpConnection(stack, ANS_ADDRESS, 53, IPv4Address(SOURCES + n), 4444)


def drive_client_buckets(bound):
    """Completed handshakes from distinct peers reach the proxy."""
    proxy = GuardTestbed().guard.tcp_proxy
    for conn in _connections(proxy.node.tcp, bound):
        proxy.listener.on_connection(conn)
        yield len(proxy._client_buckets)


def drive_connections(bound):
    stack = GuardTestbed().guard_node.tcp
    for conn in _connections(stack, bound):
        stack._admit(conn)
        yield len(stack.connections)


def drive_time_wait(bound):
    """Cleanly closed connections linger in TIME_WAIT."""
    stack = GuardTestbed().guard_node.tcp
    for conn in _connections(stack, bound):
        stack._forget(conn, linger=True)
        yield len(stack._time_wait)


#: ``Class.attr`` of every attacker-keyed declaration -> its driver.
DRIVERS = {
    "TopRequesterTracker._counts": drive_tracker_counts,
    "TopRequesterTracker._min_heap": drive_tracker_heap,
    "UnverifiedResponseLimiter._buckets": drive_rl1_buckets,
    "VerifiedRequestLimiter._buckets": drive_rl2_buckets,
    "RemoteDnsGuard._pending": drive_pending,
    "RemoteDnsGuard._answer_cache": drive_answer_cache,
    "RemoteDnsGuard._verified_sources": drive_verified_sources,
    "RemoteDnsGuard._slots": drive_slots,
    "RemoteDnsGuard._restored": drive_restored,
    "EdnsCookieClientShim._server_cookies": drive_shim_server_cookies,
    "EdnsCookieClientShim._held": drive_shim_held,
    "TcpProxy._client_buckets": drive_client_buckets,
    "TcpStack.connections": drive_connections,
    "TcpStack._time_wait": drive_time_wait,
}

#: The module constant capping each table bounded at ``SLOW_BOUND`` or more.
SLOW_CAPS = {"TcpStack.connections": (tcp_module, "MAX_CONNECTIONS")}


@cache
def attacker_keyed_bounds() -> dict[str, int]:
    """``Class.attr`` -> declared bound, for every attacker-keyed entry."""
    return {
        f"{cls.__qualname__}.{attr}": spec.bound
        for _module, cls, attrs in iter_declared_classes("repro", "__state_bounds__")
        for attr, spec in attrs.items()
        if spec.keyed_by == "attacker"
    }


def test_every_attacker_keyed_bound_has_a_driver():
    assert set(attacker_keyed_bounds()) == set(DRIVERS)


@pytest.mark.parametrize("entry", sorted(DRIVERS))
def test_table_fills_to_its_declared_bound_and_no_further(entry, monkeypatch):
    bound = attacker_keyed_bounds()[entry]
    if bound >= SLOW_BOUND:
        module, name = SLOW_CAPS[entry]
        assert getattr(module, name) == bound
        monkeypatch.setattr(module, name, SMALL_CAP)
        bound = SMALL_CAP
    sizes = list(DRIVERS[entry](bound))
    assert len(sizes) > bound
    assert max(sizes) == bound
