"""A node's interception table: four hooks, each an ordered rule list.

The paper deploys the DNS guard "in the iptable module"; this is the
simulator's equivalent, and the only way to stand in a packet's path.
Every :class:`~repro.netsim.node.Node` owns one :class:`PacketFilter`;
the guard *is* a rule in its ``FORWARD`` list, beside whatever else the
operator layers around it — edge ingress filtering (RFC 2827, the §II
related-work baseline), a traffic meter on ``LOCAL_IN``.

A rule is a ``Packet -> Verdict`` callable.  A hook's verdict is the first
non-``ACCEPT`` one, so the rules form a cascade in insertion order: each
layer sees what the layers before it accepted, and any of them may stop the
packet.  A hook with no rules costs the node one emptiness test.
"""

from __future__ import annotations

import enum
from ipaddress import IPv4Network
from typing import Callable

from .address import parse_network
from .packet import Packet


class Hook(enum.Enum):
    """Where in a node's packet path a rule list runs (its attribute on
    :class:`PacketFilter`)."""

    PREROUTING = "prerouting"  # every packet arriving on any link
    LOCAL_IN = "local_in"  # packets delivered to this node's stacks
    FORWARD = "forward"  # packets routed through this node
    LOCAL_OUT = "local_out"  # packets originated by this node


class Verdict(enum.Enum):
    ACCEPT = "accept"  # carry on: next rule, then the packet's normal path
    DROP = "drop"
    #: Hand a transit packet to this node's own stacks instead of routing
    #: it (how the guard terminates TCP aimed at the ANS).  Honoured at
    #: ``FORWARD``; the other hooks have nowhere else to send a packet, so
    #: there any verdict but ``ACCEPT`` drops it.
    DELIVER = "deliver"


Match = Callable[[Packet], bool]
Target = Callable[[Packet], Verdict]


class PacketFilter:
    """Per-node rule table, consulted by the node's packet path."""

    __slots__ = ("prerouting", "local_in", "forward", "local_out")

    def __init__(self) -> None:
        self.prerouting: list[Target] = []
        self.local_in: list[Target] = []
        self.forward: list[Target] = []
        self.local_out: list[Target] = []

    def append(
        self,
        hook: Hook,
        match: Match | None = None,
        verdict: Verdict | None = None,
        *,
        target: Target | None = None,
    ) -> None:
        """Add a rule at the end of ``hook``'s list.

        The rule answers ``verdict`` (a constant) or ``target(packet)`` for
        the packets ``match`` selects — every packet when ``match`` is
        None — and ``ACCEPT`` for the rest.
        """
        if (verdict is None) == (target is None):
            raise ValueError("a rule needs exactly one of verdict/target")
        if target is None:
            target = lambda packet: verdict
        if match is None:
            rule = target
        else:
            rule = lambda packet: target(packet) if match(packet) else Verdict.ACCEPT
        getattr(self, hook.value).append(rule)


def evaluate(rules: list[Target], packet: Packet) -> Verdict:
    """The first non-``ACCEPT`` verdict among ``rules``, else ``ACCEPT``."""
    for rule in rules:
        verdict = rule(packet)
        if verdict is not Verdict.ACCEPT:
            return verdict
    return Verdict.ACCEPT


# ---------------------------------------------------------------------------
# Match helpers
# ---------------------------------------------------------------------------

def src_in(subnet: IPv4Network | str) -> Match:
    network, netmask = parse_network(subnet)
    return lambda packet: packet.src & netmask == network


def src_not_in(subnet: IPv4Network | str) -> Match:
    inside = src_in(subnet)
    return lambda packet: not inside(packet)
