"""Nodes: hosts and routers with addresses, routing, CPU and protocol stacks.

A node delivers packets addressed to one of its own addresses up to its
UDP/TCP stacks.  Anything else is routed: longest-prefix match over static
routes, falling back to the default route.  The one way to stand in a
packet's path is a rule in the node's interception table (``filters``, a
:class:`~repro.netsim.netfilter.PacketFilter`): a middlebox such as the
guard is a ``FORWARD`` rule that accepts, drops or hijacks (``DELIVER``)
what flows through the node, a meter is a ``LOCAL_IN`` rule.
"""

from __future__ import annotations

from ipaddress import IPv4Address, IPv4Network

from .cpu import Cpu
from .errors import RoutingError
from .link import Link
from .netfilter import PacketFilter, Verdict, evaluate
from .packet import Packet, TcpSegment, UdpDatagram
from .simulator import Simulator

#: "not in the route cache" — ``None`` is a cached answer (no route).
_MISS = object()


class Node:
    """A simulated host or router."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.cpu = Cpu(sim)
        self.addresses: list[IPv4Address] = []
        #: ``addresses`` as integers — the O(1) per-packet ownership test (address.py)
        self._address_set: set[int] = set()
        self.links: list[Link] = []
        #: longest prefix first; a tuple, so the table changes only through
        #: the methods below, each of which re-derives the memo
        self.routes: tuple[tuple[IPv4Network, Link], ...] = ()
        self.default_route: Link | None = None
        #: where a destination no prefix route matches goes: the default
        #: route, else a single-homed host's only link
        self._fallback: Link | None = None
        #: ``_fallback`` while there are no prefix routes (every destination
        #: goes one way, decided once per table change), else ``_MISS``
        self._route: Link | None | object = None
        #: per-destination route memo of a node with prefix routes, cleared on any
        #: table change and bounded so spoofed-destination floods cannot grow it
        self._route_cache: dict[int, Link | None] = {}
        #: CPU-seconds charged per packet forwarded in transit (the guards
        #: set it on the node they are deployed on).
        self.forward_cost = 0.0
        #: the interception table: per-hook rule lists, empty by default
        self.filters = PacketFilter()
        self.packets_delivered = 0
        self.packets_forwarded = 0
        self.packets_dropped = 0
        # protocol stacks are created lazily to avoid import cycles
        from .udp import UdpStack
        from .tcp import TcpStack

        self.udp = UdpStack(self)
        self.tcp = TcpStack(self)
        if sim.obs is not None:
            sim.obs.register_node(self)

    # -- configuration -------------------------------------------------------

    def add_address(self, address: IPv4Address | str) -> IPv4Address:
        if isinstance(address, str):
            address = IPv4Address(address)
        self.addresses.append(address)
        self._address_set.add(int(address))
        return address

    @property
    def address(self) -> IPv4Address:
        """The node's primary address."""
        if not self.addresses:
            raise RoutingError(f"{self.name} has no address")
        return self.addresses[0]

    def attach(self, link: Link) -> None:
        self.links.append(link)
        self._table_changed()

    def add_route(self, subnet: IPv4Network | str, link: Link) -> None:
        if isinstance(subnet, str):
            subnet = IPv4Network(subnet)
        # a config-time sort, not the per-packet path (the per-packet
        # lookup memoizes through _route_cache)
        self.routes = tuple(
            sorted((*self.routes, (subnet, link)), key=lambda item: item[0].prefixlen, reverse=True)
        )
        self._table_changed()

    def remove_route(self, subnet: IPv4Network | str) -> None:
        """Withdraw the route for exactly ``subnet``."""
        if isinstance(subnet, str):
            subnet = IPv4Network(subnet)
        self.routes = tuple((s, l) for s, l in self.routes if s != subnet)
        self._table_changed()

    def replace_route(self, subnet: IPv4Network | str, link: Link) -> None:
        """Repoint the route for exactly ``subnet`` at ``link`` (failover)."""
        self.remove_route(subnet)
        self.add_route(subnet, link)

    def set_default_route(self, link: Link) -> None:
        self.default_route = link
        self._table_changed()

    def _table_changed(self) -> None:
        """Forget the memo and re-derive the fallback and the one route."""
        self._route_cache.clear()
        fallback = self.default_route
        # single-homed hosts route everything over their only link
        if fallback is None and len(self.links) == 1:
            fallback = self.links[0]
        self._fallback = fallback
        self._route = _MISS if self.routes else fallback

    # -- data path ------------------------------------------------------------

    def receive(self, packet: Packet, link: Link) -> None:
        """Entry point for packets arriving from ``link``."""
        filters = self.filters
        if filters.prerouting and evaluate(filters.prerouting, packet) is not Verdict.ACCEPT:
            self.packets_dropped += 1
            return
        if packet.dst._ip in self._address_set:
            if filters.local_in and evaluate(filters.local_in, packet) is not Verdict.ACCEPT:
                self.packets_dropped += 1
                return
            self.deliver(packet)
            return
        # evaluate()'s cascade written out: a transit hop enters its rules
        # and no netfilter frame around them
        for rule in filters.forward:  # a cascade: each rule runs until one stops the packet
            verdict = rule(packet)
            if verdict is not Verdict.ACCEPT:
                if verdict is Verdict.DELIVER:
                    self.deliver(packet)
                else:
                    self.packets_dropped += 1
                return
        self.forward(packet)

    def deliver(self, packet: Packet) -> None:
        """Hand a packet to the local protocol stacks."""
        self.packets_delivered += 1
        segment = packet.segment
        # exact-type tests, as Packet.size's: no builtin call per delivery
        if type(segment) is UdpDatagram:
            self.udp.demux(packet, segment)
        elif type(segment) is TcpSegment:
            self.tcp.demux(packet, segment)

    def forward(self, packet: Packet) -> None:
        """Route a transit packet toward its destination."""
        link = self._route
        if link is _MISS:  # route_for's memo read inline: a hit enters no frame
            link = self._route_cache.get(packet.dst._ip) or self.route_for(packet.dst)
        if link is None:
            self.packets_dropped += 1
            return
        packet.ttl -= 1
        if packet.ttl <= 0:
            self.packets_dropped += 1
            return
        if self.forward_cost:
            if not self.cpu.submit(self.forward_cost, link.transmit, packet, self):
                self.packets_dropped += 1
                return
            self.packets_forwarded += 1
            return
        self.packets_forwarded += 1
        link.transmit(packet, self)

    def route_for(self, dst: IPv4Address) -> Link | None:
        link = self._route
        if link is not _MISS:
            return link
        cache = self._route_cache
        key = dst._ip
        link = cache.get(key, _MISS)
        if link is _MISS:
            link = self._route_for_uncached(dst)
            if len(cache) > 4096:
                cache.clear()
            cache[key] = link
        return link

    def _route_for_uncached(self, dst: IPv4Address) -> Link | None:
        # ``dst in subnet`` as integers (the stdlib's own test, without its
        # frame): a router forwarding a flood's replies to spoofed sources
        # misses the memo often
        ip = dst._ip
        for subnet, link in self.routes:  # cache-miss slow path; per-packet lookups are memoized in _route_cache
            if ip & subnet.netmask._ip == subnet.network_address._ip:
                return link
        return self._fallback

    def send(self, packet: Packet) -> bool:
        """Originate a packet from this node."""
        rules = self.filters.local_out
        if rules and evaluate(rules, packet) is not Verdict.ACCEPT:
            self.packets_dropped += 1
            return False
        link = self._route
        if link is _MISS:
            link = self._route_cache.get(packet.dst._ip) or self.route_for(packet.dst)
        if link is None:
            raise RoutingError(self.name, packet.dst)
        return link.transmit(packet, self)

    def __repr__(self) -> str:
        return f"Node({self.name})"
