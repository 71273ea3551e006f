"""The integer tables decide what the address tables decided.

``Node`` keeps its two per-packet lookups on the destination's 32-bit
integer: the ownership set, and its routes compiled into a dict of the /32
routes probed by the address itself, then one dict of ``network -> link``
per shorter prefix length, probed longest first, with no memo.  Against random route tables (many /32s, overlapping
prefixes, a default route or none), own addresses and destinations, both
must answer what the stdlib answers — ``IPv4Address(d) in IPv4Network``
over the prefix-sorted routes, and ``d in node.addresses`` — before and
after every kind of table change.  The parse and format edges round-trip
the stdlib's spellings.
"""

import sys
from ipaddress import IPv4Address, IPv4Network

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim import Link, Node, Simulator, TcpState, format_address, parse_address
from repro.netsim.packet import Packet, TcpFlags, TcpSegment, UdpDatagram
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
)
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
    """Longest prefix first by ``IPv4Network.__contains__`` (the first
    route added for a subnet wins), then the default route, then a
    single-homed host's only link."""
    for subnet, link in sorted(node.routes, key=lambda route: route[0].prefixlen, reverse=True):
        if IPv4Address(dst) in subnet:
            return link
    if node.default_route is not None:
        return node.default_route
    return node.links[0] if len(node.links) == 1 else None


def _agrees_with_the_references(node, destinations):
    for dst in destinations:
        assert node.route_for(dst) is reference_route(node, dst)
        delivered = node.packets_delivered
        # what receive() does next is the ownership test's verdict
        node.receive(Packet(dst, dst, UdpDatagram(1, 2, b"")), None)
        assert node.packets_delivered - delivered == (dst in node.addresses)


@settings(max_examples=150, deadline=None)
@given(
    n_links=st.integers(min_value=0, max_value=3),
    changes=changes,
    destinations=st.lists(addresses, min_size=1, max_size=12),
)
def test_route_and_ownership_match_the_uncached_references(n_links, changes, destinations):
    sim, node = _router(n_links)
    destinations = destinations + list(EDGES)
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
        # every destination was looked up just before the change
        _agrees_with_the_references(node, destinations)


#: a hub's table: one /32 per host (as the testbed's guard and the hierarchy's
#: hub hold), plus shorter prefixes that cover some of them
host_routes = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2**32 - 1), st.just(32)), max_size=40
)
mixed_routes = st.lists(
    st.tuples(
        st.one_of(st.sampled_from(BASES), st.integers(min_value=0, max_value=2**32 - 1)),
        st.integers(min_value=0, max_value=32),
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(
    hosts=host_routes,
    mixed=mixed_routes,
    default=st.booleans(),
    links=st.lists(st.integers(min_value=0, max_value=3), min_size=52, max_size=52),
    destinations=st.lists(addresses, max_size=20),
)
def test_the_compiled_table_picks_the_longest_prefix(hosts, mixed, default, links, destinations):
    _, node = _router(4)
    routes = [IPv4Network(route, strict=False) for route in hosts + mixed]
    for subnet, pick in zip(routes, links):
        node.add_route(subnet, node.links[pick])
    if default:
        node.set_default_route(node.links[links[-1]])
    # every host route's own address, its neighbours, and random ones
    probes = [int(subnet.network_address) for subnet in routes]
    probes += [(n + 1) % 2**32 for n in probes] + destinations + list(EDGES)
    for dst in probes:
        assert node.route_for(dst) is reference_route(node, dst)


def test_a_transit_hop_and_a_decided_route_enter_no_lookup_frame():
    """The hop reads its route inline: a router forwarding through its
    prefix tables and a single-homed host's send call no ``route_for``."""
    _, router = _router(2)
    router.add_route("10.0.0.0/8", router.links[0])
    host = router.links[1].other(router)
    dst = parse_address("10.1.2.3")

    def packet():
        return Packet(dst, dst, UdpDatagram(1, 2, b""))

    router.forward(packet())  # a first hop, outside the profile
    entered, previous = [], sys.getprofile()
    sys.setprofile(lambda frame, event, _: event == "call" and entered.append(frame.f_code.co_name))
    try:
        router.forward(packet())
        host.send(packet())
    finally:
        sys.setprofile(previous)
    assert router.packets_forwarded == 2
    assert "route_for" not in entered


@pytest.mark.parametrize("n", EDGES + BASES)
def test_the_stdlib_slot_is_the_address_integer(n):
    """The integer the stdlib holds for an address, however the address was
    built, is what ``parse_address`` reads from any of its spellings, and
    ``format_address`` spells it as the stdlib does."""
    text = str(IPv4Address(n))
    for address in (IPv4Address(n), IPv4Address(text), IPv4Address(n.to_bytes(4, "big"))):
        assert parse_address(address) == int(address) == n
    assert parse_address(text) == parse_address(n) == n
    assert type(parse_address(text)) is int
    assert format_address(n) == text


@pytest.mark.parametrize("n", EDGES + BASES)
def test_the_tcp_tables_key_on_the_same_slot(n):
    """A connection files under its two address integers, and a segment's
    lookup — keyed on the integers its packet carries — finds it there."""
    _, node = _router(1)
    local, remote = n, n ^ 1
    conn = TcpConnection(node.tcp, local, 53, remote, 4000)
    assert conn.key == (n, 53, n ^ 1, 4000)
    assert node.tcp._admit(conn) and node.tcp.connections == {conn.key: conn}
    conn.state = TcpState.ESTABLISHED
    reset = TcpSegment(sport=4000, dport=53, seq=0, ack=0, flags=TcpFlags.RST)
    node.tcp.demux(Packet(parse_address(format_address(remote)), local, reset), reset)
    assert conn.state is TcpState.CLOSED and node.tcp.connections == {}
