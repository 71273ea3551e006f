"""In flight: every DNS payload that crosses a link is sized by its real bytes.

The UDP path carries ``Message`` objects and sizes a packet from the
message's wire memo, which producers now derive from frozen prototypes
instead of encoding.  A ``Link.transmit`` wrapper (test-side only) checks
each DNS payload against a fresh ``_encode_once(True)`` over short runs
of all four schemes, the RFC 7873 guard, a key rotation mid-run and a
DNS-0x20 resolver: ``size`` is the length of the real encoding and a frozen
message holds exactly those bytes.  A receiver that edited a frozen message
in place (a dropped ``copy()``) would leave a stale memo and fail here.  The
same wrapper holds every packet's own size memo (UDP or TCP) to a fresh
measurement at each hop it crosses.
"""

import collections
import struct

import pytest

from repro.attack import SpoofingAttacker
from repro.dns import LrsSimulator, TcpLoadClient
from repro.dnswire.message import _decoded
from repro.experiments.hierarchy import GuardedHierarchy
from repro.experiments.testbed import ANS_ADDRESS, GuardTestbed
from repro.guard import random_key
from repro.netsim import Link, UdpDatagram
from repro.netsim.packet import IP_HEADER_BYTES, TCP_HEADER_BYTES, UDP_HEADER_BYTES
from tests.guard.test_rfc7873 import ANS_IP, build_testbed


@pytest.fixture
def in_flight(monkeypatch):
    """Counts of DNS payloads seen on any link, ``checked`` and ``frozen``,
    and of every packet whose size memo was checked, ``sized``."""
    seen = collections.Counter()
    transmit = Link.transmit

    def checked_transmit(self, packet, sender):
        segment = packet.segment
        if isinstance(segment, UdpDatagram):
            payload = segment.payload
            if type(payload) is not bytes:
                message = payload
                encoded = message._encode_once(True)
                seen["checked"] += 1
                if message._body is not None:
                    head = struct.pack("!HH", message.header.msg_id, message.header.flags_word())
                    assert head + message._body == encoded, str(message)
                    seen["frozen"] += 1
                body = len(encoded)
            else:
                body = len(payload)
            fresh = IP_HEADER_BYTES + UDP_HEADER_BYTES + body
        else:
            fresh = IP_HEADER_BYTES + TCP_HEADER_BYTES + len(segment.data)
        # the packet's size memo — given by a template sender, else set by
        # its first link and read by the rest — is what measuring it afresh
        # (a message's real encoding) gives, before and after this hop
        assert packet._size in (None, fresh)
        sent = transmit(self, packet, sender)
        assert packet._size == fresh
        seen["sized"] += 1
        return sent

    monkeypatch.setattr(Link, "transmit", checked_transmit)
    return seen


def lrs_run(bed, duration=0.05, **lrs_options):
    lrs = LrsSimulator(bed.add_client("lrs"), ANS_ADDRESS, **lrs_options)
    lrs.start()
    bed.run(duration)
    lrs.stop()
    assert lrs.stats.completed > 10
    return lrs


@pytest.mark.parametrize("cache_cookies", [False, True])
def test_ns_name_scheme(in_flight, cache_cookies):
    bed = GuardTestbed(ans="simulator", ans_mode="referral")
    lrs_run(bed, workload="referral", cache_cookies=cache_cookies)
    # messages 1-6 all come from prototypes: nothing crosses a link unfrozen
    assert in_flight["frozen"] == in_flight["checked"] > 60


@pytest.mark.parametrize("cache_cookies", [False, True])
def test_fabricated_ns_ip_scheme(in_flight, cache_cookies):
    bed = GuardTestbed(ans="simulator", ans_mode="answer")
    lrs_run(bed, workload="nonreferral", cache_cookies=cache_cookies)
    assert bed.guard.responses_transformed > 0
    assert in_flight["frozen"] > 60


def test_tcp_scheme(in_flight, monkeypatch):
    # the decode memo is process-wide: start from an empty one, so no
    # earlier test's entries can bring on a flush mid-run
    _decoded.clear()
    bed = GuardTestbed(ans="simulator", ans_mode="answer", guard_policy="tcp")
    proxy = bed.guard.tcp_proxy
    proxied = []
    send_upstream = proxy._send_upstream

    def recording_send_upstream(conn, query):
        proxied.append(query)
        send_upstream(conn, query)

    monkeypatch.setattr(proxy, "_send_upstream", recording_send_upstream)
    lrs_run(bed, workload="plain", duration=0.1)
    tcp = TcpLoadClient(bed.add_client("tcp"), ANS_ADDRESS, concurrency=5)
    tcp.start()
    bed.run(0.05)
    assert tcp.stats.completed > 10 and bed.guard.truncations_sent > 0
    assert in_flight["checked"] > 60
    assert in_flight["sized"] > in_flight["checked"]  # the TCP segments too
    # the proxy re-sends what it de-framed: after the first sighting of the
    # query's shape, decode hands it over frozen with the bytes the client
    # framed, so the UDP hop to the ANS is sized without an encode
    assert len(proxied) > 10
    assert sum(query._body is None for query in proxied) <= 1


@pytest.mark.parametrize("activation_threshold", [None, 1e9])
def test_modified_dns_scheme_under_an_invalid_cookie_flood(in_flight, activation_threshold):
    """Stamp at the local guard, strip at the remote one; with detection
    inactive the flood's own template is stripped and forwarded too."""
    bed = GuardTestbed(
        ans="simulator", ans_mode="answer", activation_threshold=activation_threshold
    )
    lrs = LrsSimulator(bed.add_client("legit", via_local_guard=True), ANS_ADDRESS)
    attacker = SpoofingAttacker(
        bed.add_client("attacker"), ANS_ADDRESS, rate=20_000, carry_invalid_cookie=True
    )
    attacker.start()
    lrs.start()
    bed.run(0.03)
    assert lrs.stats.completed > 10 and attacker.packets_sent > 100
    # the one cookie grant is built and measured the ordinary way
    assert in_flight["checked"] - 1 <= in_flight["frozen"] > 600


def test_rfc7873_guard(in_flight):
    sim, client, shim, guard, ans, attacker = build_testbed()
    lrs = LrsSimulator(client, ANS_IP, workload="plain")
    lrs.start()
    sim.run(until=0.05)
    assert lrs.stats.completed > 10 and guard.valid_cookies > 10
    assert in_flight["checked"] > 60 and in_flight["frozen"] > 20


def test_key_rotation_mid_run(in_flight):
    bed = GuardTestbed(ans="simulator", ans_mode="referral")
    lrs = LrsSimulator(bed.add_client("lrs"), ANS_ADDRESS, workload="referral", cache_cookies=False)
    lrs.start()
    bed.run(0.02)
    before = lrs.stats.completed
    bed.guard.rotate_cookie_key(random_key(bed.sim.rng))
    bed.run(0.02)
    assert before > 10 and lrs.stats.completed > 2 * before - 5
    assert in_flight["frozen"] == in_flight["checked"]


def test_a_dns_0x20_resolver_through_both_guards(in_flight):
    """The real iterative resolver randomises the casing of every query and
    drops a reply that does not echo it byte for byte."""
    hierarchy = GuardedHierarchy(guard_root=True, guard_foo=True)
    assert hierarchy.lrs.use_0x20
    for name in ("www.foo.com", "mail.foo.com", "www.foo.com"):
        assert hierarchy.resolve(name).ok
        hierarchy.lrs.cache.flush()
    assert hierarchy.root_guard.responses_transformed >= 2
    assert hierarchy.foo_guard.responses_transformed >= 2
    assert in_flight["checked"] > 30 and in_flight["frozen"] > 10
