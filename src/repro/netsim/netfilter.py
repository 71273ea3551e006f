"""A netfilter-style packet filter: hooks, chains, rules, verdicts.

The paper deploys the DNS guard "in the iptable module"; this is the
simulator's equivalent mechanism.  Each node can own a
:class:`PacketFilter` with the classic five hooks; chains hold ordered
:class:`Rule` objects with match predicates and verdicts (or callable
targets), falling through to a per-chain policy.  Per-rule packet/byte
counters match what ``iptables -L -v`` would show.

The DNS guard itself predates this layer in the codebase and uses the
``Node.transit_filter`` middlebox hook directly; the packet filter is the
general-purpose tool for everything else — edge ingress filtering
(RFC 2827, the §II related-work baseline), port blocking, rate limiting.
"""

from __future__ import annotations

import dataclasses
import enum
from ipaddress import IPv4Address, IPv4Network
from typing import Callable, TYPE_CHECKING

from .packet import Packet, UdpDatagram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .node import Node


class Hook(enum.Enum):
    """Where in a node's packet path a chain runs."""

    PREROUTING = "prerouting"  # every packet arriving on any link
    LOCAL_IN = "input"  # packets delivered to this node's stacks
    FORWARD = "forward"  # packets routed through this node
    LOCAL_OUT = "output"  # packets originated by this node


class Verdict(enum.Enum):
    ACCEPT = "accept"
    DROP = "drop"


Match = Callable[[Packet], bool]
Target = Callable[[Packet], Verdict]


@dataclasses.dataclass(slots=True)
class Rule:
    """One chain entry: a match predicate plus a verdict or callable target."""

    match: Match
    verdict: Verdict | None = None
    target: Target | None = None
    comment: str = ""
    packets: int = 0
    bytes: int = 0

    def __post_init__(self) -> None:
        if (self.verdict is None) == (self.target is None):
            raise ValueError("a rule needs exactly one of verdict/target")

    def evaluate(self, packet: Packet) -> Verdict | None:
        """The rule's verdict for ``packet``, or None if it doesn't match."""
        if not self.match(packet):
            return None
        self.packets += 1
        self.bytes += packet.size
        if self.verdict is not None:
            return self.verdict
        return self.target(packet)  # type: ignore[misc]


class Chain:
    """An ordered rule list with a fall-through policy."""

    def __init__(self, policy: Verdict = Verdict.ACCEPT):
        self.policy = policy
        self.rules: list[Rule] = []
        self.policy_packets = 0

    def append(self, rule: Rule) -> Rule:
        self.rules.append(rule)
        return rule

    def insert(self, index: int, rule: Rule) -> Rule:
        self.rules.insert(index, rule)
        return rule

    def evaluate(self, packet: Packet) -> Verdict:
        for rule in self.rules:  # repro: allow[P005] ordered first-match traversal is the netfilter chain contract
            verdict = rule.evaluate(packet)
            if verdict is not None:
                return verdict
        self.policy_packets += 1
        return self.policy

    def flush(self) -> None:
        self.rules.clear()


class PacketFilter:
    """Per-node chain table, evaluated by the node's packet path."""

    def __init__(self) -> None:
        self.chains: dict[Hook, Chain] = {hook: Chain() for hook in Hook}

    def chain(self, hook: Hook) -> Chain:
        return self.chains[hook]

    def evaluate(self, hook: Hook, packet: Packet) -> Verdict:
        return self.chains[hook].evaluate(packet)

    def append(
        self,
        hook: Hook,
        match: Match,
        verdict: Verdict | None = None,
        *,
        target: Target | None = None,
        comment: str = "",
    ) -> Rule:
        """Convenience: build and append a rule in one call."""
        rule = Rule(match=match, verdict=verdict, target=target, comment=comment)
        return self.chains[hook].append(rule)


# ---------------------------------------------------------------------------
# Match helpers (the common iptables matchers)
# ---------------------------------------------------------------------------

def match_all(packet: Packet) -> bool:
    return True


def src_in(subnet: IPv4Network | str) -> Match:
    network = IPv4Network(subnet) if isinstance(subnet, str) else subnet
    return lambda packet: packet.src in network


def src_not_in(subnet: IPv4Network | str) -> Match:
    inside = src_in(subnet)
    return lambda packet: not inside(packet)


def dst_is(address: IPv4Address | str) -> Match:
    target = IPv4Address(address) if isinstance(address, str) else address
    return lambda packet: packet.dst == target


def udp_dport(port: int) -> Match:
    return lambda packet: (
        isinstance(packet.segment, UdpDatagram) and packet.segment.dport == port
    )


def conjunction(*matches: Match) -> Match:
    return lambda packet: all(match(packet) for match in matches)


def rate_limit_target(rate: float, burst: float, clock: Callable[[], float]) -> Target:
    """An iptables ``-m limit``-style target: ACCEPT within the budget."""
    from ..guard.core.ratelimit import TokenBucket

    bucket = TokenBucket(rate, burst)

    def target(packet: Packet) -> Verdict:
        return Verdict.ACCEPT if bucket.consume(clock()) else Verdict.DROP

    return target
