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
        self.routes: list[tuple[IPv4Network, Link]] = []
        self.default_route: Link | None = None
        #: per-destination route memo (same keys), invalidated on any table change
        #: and bounded so spoofed-destination floods cannot grow it unchecked
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
        self._route_cache.clear()

    def add_route(self, subnet: IPv4Network | str, link: Link) -> None:
        if isinstance(subnet, str):
            subnet = IPv4Network(subnet)
        self.routes.append((subnet, link))
        # longest prefix first; a config-time sort, not the per-packet path
        # (the per-packet lookup memoizes through _route_cache)
        self.routes.sort(key=lambda item: item[0].prefixlen, reverse=True)  # config/failover-time; per-packet lookups hit _route_cache
        self._route_cache.clear()

    def replace_route(self, subnet: IPv4Network | str, link: Link) -> None:
        """Repoint the route for exactly ``subnet`` at ``link`` (failover)."""
        if isinstance(subnet, str):
            subnet = IPv4Network(subnet)
        self.routes = [(s, l) for s, l in self.routes if s != subnet]  # config/failover-time, like add_route's sort
        self.add_route(subnet, link)

    def set_default_route(self, link: Link) -> None:
        self.default_route = link
        self._route_cache.clear()

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
        if isinstance(segment, UdpDatagram):
            self.udp.demux(packet, segment)
        elif isinstance(segment, TcpSegment):
            self.tcp.demux(packet, segment)

    def forward(self, packet: Packet) -> None:
        """Route a transit packet toward its destination."""
        link = self.route_for(packet.dst)
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
        # frame): a flood's replies to spoofed sources miss the cache often
        ip = dst._ip
        for subnet, link in self.routes:  # cache-miss slow path; per-packet lookups are memoized in _route_cache
            if ip & subnet.netmask._ip == subnet.network_address._ip:
                return link
        if self.default_route is not None:
            return self.default_route
        # single-homed hosts route everything over their only link
        if len(self.links) == 1:
            return self.links[0]
        return None

    def send(self, packet: Packet) -> bool:
        """Originate a packet from this node."""
        rules = self.filters.local_out
        if rules and evaluate(rules, packet) is not Verdict.ACCEPT:
            self.packets_dropped += 1
            return False
        link = self.route_for(packet.dst)
        if link is None:
            raise RoutingError(f"{self.name}: no route to {packet.dst}")
        return link.transmit(packet, self)

    def __repr__(self) -> str:
        return f"Node({self.name})"
