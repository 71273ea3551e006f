"""Discrete-event network simulator: nodes, links, CPU model, UDP and TCP."""

from .address import Address, SubnetAllocator, address_args, format_address, parse_address
from .address import parse_network
from .cpu import Cpu
from .errors import (
    AddressError,
    ConnectionError_,
    NetsimError,
    RoutingError,
    SocketError,
)
from .link import GilbertElliottLoss, Link, LossModel
from .netfilter import Hook, PacketFilter, Verdict
from .node import Node
from .packet import (
    INITIAL_TTL,
    IP_HEADER_BYTES,
    Packet,
    TCP_HEADER_BYTES,
    TcpFlags,
    TcpSegment,
    UDP_HEADER_BYTES,
    UdpDatagram,
)
from .simulator import (
    BOUNDARY_PRIORITY,
    DEFAULT_PRIORITY,
    EventHandle,
    EventTrace,
    Simulator,
    TieEvent,
    set_observability,
    set_tie_hook,
    set_trace_collector,
)
from .trace import PacketTracer, TraceRecord
from .tcp import (
    DEFAULT_RTO,
    Listener,
    MAX_RETRANSMITS,
    MAX_RTO,
    TIME_WAIT_LINGER,
    MSS,
    TcpConnection,
    TcpStack,
    TcpState,
)
from .udp import UdpSocket, UdpStack

__layer__ = "platform"

__all__ = [
    "Address",
    "AddressError",
    "BOUNDARY_PRIORITY",
    "ConnectionError_",
    "Cpu",
    "Hook",
    "PacketFilter",
    "Verdict",
    "DEFAULT_PRIORITY",
    "DEFAULT_RTO",
    "EventHandle",
    "EventTrace",
    "GilbertElliottLoss",
    "INITIAL_TTL",
    "IP_HEADER_BYTES",
    "Link",
    "Listener",
    "LossModel",
    "MAX_RETRANSMITS",
    "MAX_RTO",
    "TIME_WAIT_LINGER",
    "MSS",
    "NetsimError",
    "Node",
    "Packet",
    "PacketTracer",
    "TraceRecord",
    "RoutingError",
    "SocketError",
    "Simulator",
    "SubnetAllocator",
    "set_observability",
    "set_tie_hook",
    "set_trace_collector",
    "TCP_HEADER_BYTES",
    "TieEvent",
    "TcpConnection",
    "TcpFlags",
    "TcpSegment",
    "TcpStack",
    "TcpState",
    "UDP_HEADER_BYTES",
    "UdpDatagram",
    "UdpSocket",
    "UdpStack",
    "address_args",
    "format_address",
    "parse_address",
    "parse_network",
]
