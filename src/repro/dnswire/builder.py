"""Convenience constructors for common DNS messages.

These helpers keep the server, resolver and guard code free of repetitive
header plumbing.  Message IDs are supplied by callers (servers echo the
query ID; resolvers draw from their seeded RNG).
"""

from __future__ import annotations

import dataclasses
from ipaddress import IPv4Address

from .header import Header
from .message import Message, Question, ResourceRecord
from .name import Name
from .rdata import A, NS, SOA
from .types import Opcode, Rcode, RRClass, RRType


def make_query(
    qname: Name | str,
    qtype: int = RRType.A,
    *,
    msg_id: int = 0,
    recursion_desired: bool = False,
) -> Message:
    """Build a standard query for ``qname``/``qtype``."""
    if isinstance(qname, str):
        qname = Name.from_text(qname)
    return Message(
        header=Header(msg_id=msg_id, opcode=Opcode.QUERY, rd=recursion_desired),
        questions=[Question(qname, qtype, RRClass.IN)],
    )


def response_header(
    query: Message,
    *,
    rcode: int = Rcode.NOERROR,
    authoritative: bool = False,
    recursion_available: bool = False,
) -> Header:
    """The header a response to ``query`` carries: its ID, opcode and RD echoed."""
    return Header(
        msg_id=query.header.msg_id,
        qr=True,
        opcode=query.header.opcode,
        aa=authoritative,
        rd=query.header.rd,
        ra=recursion_available,
        rcode=rcode,
    )


def make_response(
    query: Message,
    *,
    rcode: int = Rcode.NOERROR,
    authoritative: bool = False,
    recursion_available: bool = False,
) -> Message:
    """Build an empty response echoing ``query``'s ID and question."""
    return Message(
        header=response_header(
            query,
            rcode=rcode,
            authoritative=authoritative,
            recursion_available=recursion_available,
        ),
        questions=list(query.questions),
    )


def make_truncated_response(query: Message) -> Message:
    """A minimal TC=1 response: the signal to retry the query over TCP."""
    response = make_response(query)
    response.header = dataclasses.replace(response.header, tc=True)
    return response


def a_record(name: Name | str, address: IPv4Address | str | int, ttl: int = 3600) -> ResourceRecord:
    """An A resource record."""
    if isinstance(name, str):
        name = Name.from_text(name)
    if not isinstance(address, IPv4Address):
        address = IPv4Address(address)
    return ResourceRecord(name, RRType.A, RRClass.IN, ttl, A(address))


def ns_record(zone: Name | str, nsdname: Name | str, ttl: int = 3600) -> ResourceRecord:
    """An NS resource record delegating ``zone`` to ``nsdname``."""
    if isinstance(zone, str):
        zone = Name.from_text(zone)
    if isinstance(nsdname, str):
        nsdname = Name.from_text(nsdname)
    return ResourceRecord(zone, RRType.NS, RRClass.IN, ttl, NS(nsdname))


def soa_record(
    zone: Name | str,
    *,
    mname: Name | str = "ns1.invalid.",
    rname: Name | str = "hostmaster.invalid.",
    serial: int = 1,
    ttl: int = 3600,
    minimum: int = 300,
) -> ResourceRecord:
    """A start-of-authority record with sane testbed defaults."""
    if isinstance(zone, str):
        zone = Name.from_text(zone)
    if isinstance(mname, str):
        mname = Name.from_text(mname)
    if isinstance(rname, str):
        rname = Name.from_text(rname)
    rdata = SOA(mname, rname, serial, 7200, 1800, 1209600, minimum)
    return ResourceRecord(zone, RRType.SOA, RRClass.IN, ttl, rdata)
