"""Nodes: hosts and routers with addresses, routing, CPU and protocol stacks.

A node delivers packets addressed to one of its own addresses (or to a
subnet it *intercepts* — how the DNS guard claims the fabricated COOKIE2
addresses in ``1.2.3.0/24``) up to its UDP/TCP stacks.  Anything else is
routed: longest-prefix match over static routes, falling back to the default
route.  A ``transit_filter`` hook lets a middlebox node such as the guard
inspect, hijack or drop packets flowing through it.
"""

from __future__ import annotations

from ipaddress import IPv4Address, IPv4Network
from typing import Callable, Literal

from .cpu import Cpu
from .errors import RoutingError
from .link import Link
from .netfilter import Hook, PacketFilter, Verdict
from .packet import Packet, TcpSegment, UdpDatagram
from .simulator import Simulator

TransitAction = Literal["forward", "deliver", "drop"]


class Node:
    """A simulated host or router."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        *,
        cpu_speed: float = 1.0,
        cpu_queue_limit: float = 0.050,
        forward_cost: float = 0.0,
    ):
        self.sim = sim
        self.name = name
        self.cpu = Cpu(sim, speed=cpu_speed, queue_limit=cpu_queue_limit)
        self.addresses: list[IPv4Address] = []
        #: set mirror of ``addresses`` — O(1) ownership tests per packet
        self._address_set: set[IPv4Address] = set()
        self.intercept_subnets: list[IPv4Network] = []
        self.links: list[Link] = []
        self.routes: list[tuple[IPv4Network, Link]] = []
        self.default_route: Link | None = None
        #: per-destination route memo, invalidated on any table change and
        #: bounded so spoofed-destination floods cannot grow it unchecked
        self._route_cache: dict[IPv4Address, Link | None] = {}
        #: CPU-seconds charged per packet forwarded in transit (routers).
        self.forward_cost = forward_cost
        #: Middlebox hook: packet in transit -> "forward" | "deliver" | "drop".
        self.transit_filter: Callable[[Packet, Link], TransitAction] | None = None
        #: netfilter-style chain table, created on first use (see .filters)
        self._filters = None
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
        self._address_set.add(address)
        return address

    @property
    def address(self) -> IPv4Address:
        """The node's primary address."""
        if not self.addresses:
            raise RoutingError(f"{self.name} has no address")
        return self.addresses[0]

    def intercept(self, subnet: IPv4Network | str) -> None:
        """Deliver (rather than route) everything addressed into ``subnet``."""
        if isinstance(subnet, str):
            subnet = IPv4Network(subnet)
        self.intercept_subnets.append(subnet)

    def attach(self, link: Link) -> None:
        self.links.append(link)
        self._route_cache.clear()

    def add_route(self, subnet: IPv4Network | str, link: Link) -> None:
        if isinstance(subnet, str):
            subnet = IPv4Network(subnet)
        self.routes.append((subnet, link))
        # longest prefix first; a config-time sort, not the per-packet path
        # (the per-packet lookup memoizes through _route_cache)
        self.routes.sort(key=lambda item: item[0].prefixlen, reverse=True)  # repro: allow[P005] route-table mutation is config/failover-time; per-packet lookups hit _route_cache
        self._route_cache.clear()

    def replace_route(self, subnet: IPv4Network | str, link: Link) -> None:
        """Repoint the route for exactly ``subnet`` at ``link`` (failover)."""
        if isinstance(subnet, str):
            subnet = IPv4Network(subnet)
        self.routes = [(s, l) for s, l in self.routes if s != subnet]  # repro: allow[P005] route-table mutation is config/failover-time, like add_route's sort
        self.add_route(subnet, link)

    def set_default_route(self, link: Link) -> None:
        self.default_route = link
        self._route_cache.clear()

    @property
    def filters(self) -> PacketFilter:
        """The node's netfilter-style :class:`~repro.netsim.netfilter.PacketFilter`."""
        if self._filters is None:
            self._filters = PacketFilter()
        return self._filters

    def _filter_verdict(self, hook, packet: Packet) -> bool:
        """True if the packet may proceed past ``hook``."""
        if self._filters is None:
            return True
        return self._filters.evaluate(hook, packet) is Verdict.ACCEPT

    # -- data path ------------------------------------------------------------

    def owns(self, address: IPv4Address) -> bool:
        """True if packets to ``address`` should be delivered locally."""
        if address in self._address_set:
            return True
        return any(address in subnet for subnet in self.intercept_subnets)

    def receive(self, packet: Packet, link: Link) -> None:
        """Entry point for packets arriving from ``link``."""
        if self._filters is not None:
            if not self._filter_verdict(Hook.PREROUTING, packet):
                self.packets_dropped += 1
                return
        if self.owns(packet.dst):
            if self._filters is not None:
                if not self._filter_verdict(Hook.LOCAL_IN, packet):
                    self.packets_dropped += 1
                    return
            self.deliver(packet)
            return
        if self.transit_filter is not None:
            action = self.transit_filter(packet, link)
            if action == "drop":
                self.packets_dropped += 1
                return
            if action == "deliver":
                self.deliver(packet)
                return
        if self._filters is not None:
            if not self._filter_verdict(Hook.FORWARD, packet):
                self.packets_dropped += 1
                return
        self.forward(packet, link)

    def deliver(self, packet: Packet) -> None:
        """Hand a packet to the local protocol stacks."""
        self.packets_delivered += 1
        segment = packet.segment
        if isinstance(segment, UdpDatagram):
            self.udp.demux(packet, segment)
        elif isinstance(segment, TcpSegment):
            self.tcp.demux(packet, segment)

    def forward(self, packet: Packet, in_link: Link | None = None) -> None:
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
        if dst in cache:
            return cache[dst]
        link = self._route_for_uncached(dst)
        if len(cache) > 4096:
            cache.clear()
        cache[dst] = link
        return link

    def _route_for_uncached(self, dst: IPv4Address) -> Link | None:
        for subnet, link in self.routes:  # repro: allow[P005] cache-miss slow path — per-packet lookups are memoized in _route_cache
            if dst in subnet:
                return link
        if self.default_route is not None:
            return self.default_route
        # single-homed hosts route everything over their only link
        if len(self.links) == 1:
            return self.links[0]
        return None

    def send(self, packet: Packet) -> bool:
        """Originate a packet from this node."""
        if self._filters is not None:
            if not self._filter_verdict(Hook.LOCAL_OUT, packet):
                self.packets_dropped += 1
                return False
        link = self.route_for(packet.dst)
        if link is None:
            raise RoutingError(f"{self.name}: no route to {packet.dst}")
        return link.transmit(packet, self)

    def __repr__(self) -> str:
        return f"Node({self.name})"
