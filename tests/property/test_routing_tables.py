"""The integer tables decide what the address tables decided.

``Node`` keys its two per-packet lookups — the ownership set and the route
cache — on the destination's 32-bit integer (read from the stdlib's ``_ip``
slot, see ``repro/netsim/address.py``), and a cache miss tests each prefix
as integer arithmetic.  Against random route tables (overlapping prefixes,
a default route or none), own addresses and destinations, all three must
answer what the address references answer — the stdlib's own
``dst in subnet`` over the prefix-sorted routes, and ``dst in
node.addresses`` — before and after every kind of table change, each of
which must invalidate the cache.  A node with no prefix routes decides its
one route at each table change and keeps nothing in the cache.
"""

import sys
from ipaddress import IPv4Address, IPv4Network

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim import Link, Node, Simulator, TcpState
from repro.netsim.packet import Packet, RawPayload, TcpFlags, TcpSegment, UdpDatagram
from repro.netsim.tcp import TcpConnection

#: A few bases whose prefixes nest (10/8 > 10.1/16 > 10.1.2/24 > 10.1.2.3/32)
#: or sit apart, so longest-prefix order and misses are both exercised.
BASES = tuple(
    int(IPv4Address(text))
    for text in ("10.1.2.3", "10.1.9.9", "10.200.0.1", "172.16.5.5", "203.0.113.53")
)
EDGES = (0, 1, 2**31 - 1, 2**31, 2**32 - 2, 2**32 - 1)

prefixes = st.builds(
    lambda base, length: IPv4Network((base, length), strict=False),
    st.sampled_from(BASES),
    st.sampled_from((0, 8, 16, 24, 32)),
)
addresses = st.one_of(
    st.sampled_from(BASES + EDGES),
    st.builds(lambda base, offset: (base + offset) % 2**32, st.sampled_from(BASES), st.integers(-300, 300)),
    st.integers(min_value=0, max_value=2**32 - 1),
).map(IPv4Address)
link_picks = st.integers(min_value=0, max_value=7)
changes = st.lists(
    st.one_of(
        st.tuples(st.just("attach")),
        st.tuples(st.just("add_address"), addresses),
        st.tuples(st.just("add_route"), prefixes, link_picks),
        st.tuples(st.just("replace_route"), prefixes, link_picks),
        st.tuples(st.just("set_default_route"), link_picks),
    ),
    max_size=10,
)


def _router(n_links):
    sim = Simulator()
    node = Node(sim, "r")
    for index in range(n_links):
        Link(sim, node, Node(sim, f"peer{index}"))
    return sim, node


def reference_route(node, dst):
    """Longest prefix first by ``IPv4Network.__contains__``, then the
    default route, then a single-homed host's only link."""
    for subnet, link in sorted(node.routes, key=lambda route: route[0].prefixlen, reverse=True):
        if dst in subnet:
            return link
    if node.default_route is not None:
        return node.default_route
    return node.links[0] if len(node.links) == 1 else None


def _agrees_with_the_references(node, destinations):
    for dst in destinations:
        expected = reference_route(node, dst)
        assert node._route_for_uncached(dst) is expected
        assert node.route_for(dst) is expected  # cold, or whatever is cached
        assert node.route_for(dst) is expected  # certainly cached
        if not node.routes:
            # one way for every destination, decided at the last table change
            assert node._route_cache == {}
        delivered = node.packets_delivered
        # what receive() does next is the ownership test's verdict
        node.receive(Packet(dst, dst, UdpDatagram(1, 2, RawPayload(b""))), None)
        assert node.packets_delivered - delivered == (dst in node.addresses)


@settings(max_examples=150, deadline=None)
@given(
    n_links=st.integers(min_value=0, max_value=3),
    changes=changes,
    destinations=st.lists(addresses, min_size=1, max_size=12),
)
def test_route_and_ownership_match_the_uncached_references(n_links, changes, destinations):
    sim, node = _router(n_links)
    destinations = destinations + [IPv4Address(n) for n in EDGES]
    _agrees_with_the_references(node, destinations)
    for change in changes:
        if change[0] == "attach":
            Link(sim, node, Node(sim, "late"))  # calls node.attach
        elif change[0] == "add_address":
            node.add_address(change[1])
        elif not node.links:
            continue
        elif change[0] == "set_default_route":
            node.set_default_route(node.links[change[1] % len(node.links)])
        else:
            getattr(node, change[0])(change[1], node.links[change[2] % len(node.links)])
        # every destination was cached just before the change
        _agrees_with_the_references(node, destinations)


def test_route_cache_stays_bounded_under_distinct_destinations():
    """The 4,096-entry flush: a spoofed-destination flood cannot grow it."""
    _, node = _router(2)
    node.add_route("10.0.0.0/8", node.links[0])
    node.set_default_route(node.links[1])
    largest = 0
    for n in range(5_000):
        dst = IPv4Address(0x0A000000 + n * 4099)
        assert node.route_for(dst) is reference_route(node, dst)
        largest = max(largest, len(node._route_cache))
    assert largest == 4097


def test_a_decided_or_memoized_route_enters_no_lookup_frame():
    """The hop reads its route inline: a single-homed host's send and a
    router's memo hit call neither ``route_for`` nor the table walk."""
    _, router = _router(2)
    router.add_route("10.0.0.0/8", router.links[0])
    host = router.links[1].other(router)
    dst = IPv4Address("10.1.2.3")

    def packet():
        return Packet(dst, dst, UdpDatagram(1, 2, RawPayload(b"")))

    router.forward(packet())  # the miss that fills the memo
    entered, previous = [], sys.getprofile()
    sys.setprofile(lambda frame, event, _: event == "call" and entered.append(frame.f_code.co_name))
    try:
        router.forward(packet())
        host.send(packet())
    finally:
        sys.setprofile(previous)
    assert router.packets_forwarded == 2
    assert not {"route_for", "_route_for_uncached"} & set(entered)


@pytest.mark.parametrize("n", EDGES + BASES)
def test_the_stdlib_slot_is_the_address_integer(n):
    """The one stdlib internal the hop reads: ``_ip`` is the 32-bit value,
    however the address was built."""
    text = str(IPv4Address(n))
    for address in (IPv4Address(n), IPv4Address(text), IPv4Address(n.to_bytes(4, "big"))):
        assert address._ip == n == int(address)
        assert type(address._ip) is int


@pytest.mark.parametrize("n", EDGES + BASES)
def test_the_tcp_tables_key_on_the_same_slot(n):
    """A connection files under the integers of its two addresses, and a
    segment's lookup — built from the packet's addresses, however they
    were made — finds it there."""
    _, node = _router(1)
    local, remote = IPv4Address(n), IPv4Address(n ^ 1)
    conn = TcpConnection(node.tcp, local, 53, remote, 4000)
    assert conn.key == (n, 53, n ^ 1, 4000)
    assert [type(part) for part in conn.key] == [int] * 4
    assert node.tcp._admit(conn) and node.tcp.connections == {conn.key: conn}
    conn.state = TcpState.ESTABLISHED
    reset = TcpSegment(sport=4000, dport=53, seq=0, ack=0, flags=TcpFlags.RST)
    node.tcp.demux(Packet(IPv4Address(str(remote)), IPv4Address(local.packed), reset), reset)
    assert conn.state is TcpState.CLOSED and node.tcp.connections == {}
