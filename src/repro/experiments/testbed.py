"""The six-node evaluation testbed (paper §IV.A), parameterised.

Topology::

    client_1 ─┐
    client_2 ─┼── remote guard ── ANS
    client_n ─┘

Clients (LRSs, load generators, attackers) each hang off their own link to
the guard, which is the inline router in front of the ANS.  A client may be
placed behind an inline local DNS guard (the modified-DNS scheme's LRS-side
module).  Link delays default to the paper's 0.4 ms LAN RTT; a client can be
attached over the 10.9 ms WAN path instead for the Table II latency runs.
"""

from __future__ import annotations

import itertools
from ipaddress import IPv4Network

from ..dns import AnsSimulator, AuthoritativeServer, Zone
from ..dnswire import Name, soa_record
from ..guard import (
    CookieFactory,
    GuardCosts,
    LocalDnsGuard,
    RemoteDnsGuard,
    UnverifiedResponseLimiter,
    VerifiedRequestLimiter,
    random_key,
)
from ..netsim import Address, Link, Node, Simulator, parse_address
from .calibration import ANS_LINK_DELAY, LAN_LINK_DELAY, WAN_LINK_DELAY

#: Rate-limiter settings that stay out of the way of single-node load
#: generators.  The paper's throughput experiments likewise run with the
#: limiters effectively open; the attack-analysis experiments configure
#: real (tight) limiters explicitly.
OPEN_RATE = 1e9

#: Well-known addresses in the testbed (address integers).
ANS_ADDRESS = parse_address("203.0.113.53")
GUARD_ADDRESS = parse_address("203.0.113.1")
COOKIE_SUBNET = "198.18.0.0/24"


class GuardTestbed:
    """Builds and owns the simulated evaluation network."""

    def __init__(
        self,
        *,
        seed: int = 0,
        ans: str = "simulator",
        ans_mode: str = "answer",
        answer_ttl: int = 0,
        guard_enabled: bool = True,
        guard_policy="dns",
        activation_threshold: float | None = None,
        guard_costs: GuardCosts | None = None,
        cookie_subnet: str | None = COOKIE_SUBNET,
        zone_origin: str = ".",
        rl1=None,
        rl2=None,
    ):
        self.sim = Simulator(seed=seed)
        self._client_ips = itertools.count(10)

        # the guard node sits inline in front of the ANS
        self.guard_node = Node(self.sim, "guard")
        self.guard_node.add_address(GUARD_ADDRESS)
        self.ans_node = Node(self.sim, "ans")
        self.ans_node.add_address(ANS_ADDRESS)
        self.ans_link = Link(self.sim, self.guard_node, self.ans_node, delay=ANS_LINK_DELAY)
        self.ans_node.set_default_route(self.ans_link)
        self.guard_node.add_route(IPv4Network(ANS_ADDRESS), self.ans_link)

        # the protected server
        if ans == "simulator":
            self.ans = AnsSimulator(self.ans_node, mode=ans_mode, answer_ttl=answer_ttl)
        elif ans == "bind":
            zone = self._default_zone(zone_origin, answer_ttl)
            self.ans = AuthoritativeServer(
                self.ans_node, [zone], answer_ttl_override=answer_ttl
            )
        else:
            raise ValueError(f"unknown ans kind {ans!r}")

        # the remote DNS guard; limiters default to open for load testing.
        # The cookie key is drawn from the seeded simulator RNG — an
        # OS-entropy key would make cookie-derived packet contents (and so
        # the whole event trace) differ between same-seed runs.
        self.cookie_factory = CookieFactory(random_key(self.sim.rng))
        if rl1 is None:
            rl1 = UnverifiedResponseLimiter(per_source_rate=OPEN_RATE, per_source_burst=OPEN_RATE)
        if rl2 is None:
            rl2 = VerifiedRequestLimiter(per_host_rate=OPEN_RATE, per_host_burst=OPEN_RATE)
        self.guard = RemoteDnsGuard(
            self.guard_node,
            ANS_ADDRESS,
            origin=zone_origin,
            cookie_factory=self.cookie_factory,
            costs=guard_costs or GuardCosts(),
            cookie_subnet=cookie_subnet,
            policy=guard_policy,
            activation_threshold=activation_threshold,
            enabled=guard_enabled,
            rl1=rl1,
            rl2=rl2,
        )
        self.guard.tcp_proxy.new_connection_rate = OPEN_RATE
        self.guard.tcp_proxy.new_connection_burst = OPEN_RATE

    @staticmethod
    def _default_zone(origin: str, answer_ttl: int) -> Zone:
        zone = Zone(origin if origin != "." else "foo.com")
        zone.add(soa_record(zone.origin))
        www = Name.from_text("www.foo.com")
        if www.is_subdomain_of(zone.origin):
            zone.add_a(www, "198.51.100.80", ttl=max(answer_ttl, 1))
        return zone

    # -- clients ------------------------------------------------------------------

    def add_client(
        self,
        name: str,
        *,
        address: Address | None = None,
        wan: bool = False,
        via_local_guard: bool = False,
    ) -> Node:
        """Attach a client host (LRS / load generator / attacker) to the guard.

        With ``via_local_guard`` an inline :class:`LocalDnsGuard` node is
        inserted between the client and the remote guard, making the client
        cookie-capable without modification.
        """
        delay = WAN_LINK_DELAY if wan else LAN_LINK_DELAY
        node = Node(self.sim, name)
        if address is None:
            address = f"10.0.0.{next(self._client_ips)}"
        host = IPv4Network(node.add_address(address))

        if via_local_guard:
            lg_node = Node(self.sim, f"{name}-localguard")
            lg_node.add_address(f"10.0.0.{next(self._client_ips)}")
            inner = Link(self.sim, node, lg_node, delay=0.00001)
            outer = Link(self.sim, lg_node, self.guard_node, delay=delay)
            node.set_default_route(inner)
            lg_node.add_route(host, inner)
            lg_node.set_default_route(outer)
            self.guard_node.add_route(host, outer)
            local_guard = LocalDnsGuard(lg_node)
            node.local_guard = local_guard  # type: ignore[attr-defined]
        else:
            link = Link(self.sim, node, self.guard_node, delay=delay)
            node.set_default_route(link)
            self.guard_node.add_route(host, link)
        return node

    # -- measurement helpers -----------------------------------------------------------

    def run(self, duration: float) -> None:
        self.sim.run(until=self.sim.now + duration)

    def measure(self, stats_list, duration: float, *, warmup: float = 0.0):
        """Run ``warmup`` then ``duration``, returning each stats' throughput."""
        return measure_window(self.sim, stats_list, duration, warmup=warmup)[0]

    def cpu_utilization(self, node: Node, duration: float) -> float:
        """Utilisation of ``node`` over the next ``duration`` seconds."""
        return measure_window(self.sim, (), duration, nodes=(node,))[1][0]


def measure_window(sim: Simulator, stats_list, duration: float, *, warmup: float = 0.0,
                   nodes=()) -> tuple[list[float], list[float]]:
    """The one measurement window: run ``warmup``, open a window on each
    stats and mark each node's CPU, run ``duration``, and return
    ``(each stats' throughput, each node's CPU utilisation)``.

    A stats is anything with ``begin_window(now)`` and ``throughput(now)``.
    It takes a bare :class:`Simulator` because not every testbed is a
    :class:`GuardTestbed` (the RFC 7873 ablation builds its own).
    """
    if warmup:
        sim.run(until=sim.now + warmup)
    now = sim.now
    for stats in stats_list:
        stats.begin_window(now)
    busy = [node.cpu.completed_busy_seconds() for node in nodes]
    sim.run(until=now + duration)
    return (
        [stats.throughput(sim.now) for stats in stats_list],
        [node.cpu.utilization(busy0, now) for node, busy0 in zip(nodes, busy)],
    )
