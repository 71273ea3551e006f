"""Discrete-event network simulator: nodes, links, CPU model, UDP and TCP."""

from .address import SubnetAllocator
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
    DnsPayload,
    IP_HEADER_BYTES,
    Packet,
    RawPayload,
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
    "AddressError",
    "BOUNDARY_PRIORITY",
    "ConnectionError_",
    "Cpu",
    "Hook",
    "PacketFilter",
    "Verdict",
    "DEFAULT_PRIORITY",
    "DEFAULT_RTO",
    "DnsPayload",
    "EventHandle",
    "EventTrace",
    "GilbertElliottLoss",
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
    "RawPayload",
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
]
