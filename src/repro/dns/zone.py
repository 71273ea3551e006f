"""Zone data and a master-file-subset parser (RFC 1035 §5).

A :class:`Zone` answers the three questions an authoritative server asks:
is this name delegated (referral), do we have authoritative data (answer),
or is it NXDOMAIN/NODATA.  Delegation points carry both NS records and glue
A records, matching the standard delegation practice the paper relies on
("each next-level domain provides both the name and IP of its ANS").
"""

from __future__ import annotations

import dataclasses
import enum
from ipaddress import IPv4Address

from ..dnswire import (
    A,
    CNAME,
    MX,
    NS,
    Name,
    ResourceRecord,
    RRClass,
    RRType,
    SOA,
    SRV,
    TXT,
)


class AnswerKind(enum.Enum):
    """Classification of a zone lookup result."""

    ANSWER = "answer"
    DELEGATION = "delegation"
    NXDOMAIN = "nxdomain"
    NODATA = "nodata"
    CNAME = "cname"


@dataclasses.dataclass(slots=True)
class LookupResult:
    """The outcome of a zone lookup, ready to be turned into a response."""

    kind: AnswerKind
    records: list[ResourceRecord] = dataclasses.field(default_factory=list)
    authority: list[ResourceRecord] = dataclasses.field(default_factory=list)
    additional: list[ResourceRecord] = dataclasses.field(default_factory=list)

    @property
    def is_referral(self) -> bool:
        return self.kind is AnswerKind.DELEGATION


class Zone:
    """One zone of authoritative data rooted at ``origin``."""

    def __init__(self, origin: Name | str, *, default_ttl: int = 3600):
        self.origin = Name.from_text(origin) if isinstance(origin, str) else origin
        self.default_ttl = default_ttl
        self._records: dict[Name, dict[int, list[ResourceRecord]]] = {}
        #: Names at which this zone delegates to a child zone.
        self._delegations: set[Name] = set()
        #: Edits so far, counted by :meth:`add` (``delegate``'s glue rides on
        #: its NS record's): a server's kept answer from this zone holds only
        #: while the count it was built under does.
        self.edits = 0

    # -- building ------------------------------------------------------------

    def add(self, rr: ResourceRecord) -> None:
        """Add one record; NS records below the origin become delegations."""
        if not rr.name.is_subdomain_of(self.origin):
            raise ValueError(f"{rr.name} is outside zone {self.origin}")
        self._records.setdefault(rr.name, {}).setdefault(rr.rtype, []).append(rr)
        if rr.rtype == RRType.NS and rr.name != self.origin:
            self._delegations.add(rr.name)
        self.edits += 1

    def add_a(self, name: Name | str, address: IPv4Address | str, ttl: int | None = None) -> None:
        name = Name.from_text(name) if isinstance(name, str) else name
        if ttl is None:
            ttl = self.default_ttl
        self.add(ResourceRecord(name, RRType.A, RRClass.IN, ttl, A(address)))

    def delegate(
        self,
        child: Name | str,
        ns_name: Name | str,
        ns_address: IPv4Address | str,
        ttl: int | None = None,
    ) -> None:
        """Delegate ``child`` to a nameserver, with glue."""
        child = Name.from_text(child) if isinstance(child, str) else child
        ns_name = Name.from_text(ns_name) if isinstance(ns_name, str) else ns_name
        if ttl is None:
            ttl = self.default_ttl
        self.add(ResourceRecord(child, RRType.NS, RRClass.IN, ttl, NS(ns_name)))
        # glue may technically live below the cut; store it so referrals carry it
        self._records.setdefault(ns_name, {}).setdefault(RRType.A, []).append(
            ResourceRecord(ns_name, RRType.A, RRClass.IN, ttl, A(ns_address))
        )

    # -- lookup ----------------------------------------------------------------

    def lookup(self, qname: Name, qtype: int) -> LookupResult:
        """Resolve ``qname``/``qtype`` against this zone's data."""
        if not qname.is_subdomain_of(self.origin):
            return LookupResult(AnswerKind.NXDOMAIN)

        # walk from the origin down toward qname looking for a zone cut
        cut = self._closest_delegation(qname)
        if cut is not None:
            ns_rrs = self._records[cut][RRType.NS]
            glue: list[ResourceRecord] = []
            for ns_rr in ns_rrs:
                target = ns_rr.rdata.target  # type: ignore[union-attr]
                glue.extend(self._records.get(target, {}).get(RRType.A, []))
            return LookupResult(AnswerKind.DELEGATION, authority=list(ns_rrs), additional=glue)

        node = self._records.get(qname)
        if node is None:
            wildcard = self._wildcard_node(qname)
            if wildcard is None:
                return LookupResult(AnswerKind.NXDOMAIN, authority=self._soa_authority())
            node = {
                rtype: [dataclasses.replace(rr, name=qname) for rr in rrs]
                for rtype, rrs in wildcard.items()
            }
        if qtype in node:
            return LookupResult(AnswerKind.ANSWER, records=list(node[qtype]))
        if RRType.CNAME in node and qtype != RRType.CNAME:
            return LookupResult(AnswerKind.CNAME, records=list(node[RRType.CNAME]))
        return LookupResult(AnswerKind.NODATA, authority=self._soa_authority())

    def _wildcard_node(self, qname: Name) -> dict[int, list[ResourceRecord]] | None:
        """RFC 1034 §4.3.3: the ``*`` child of qname's closest encloser.

        The closest encloser is the longest existing ancestor of ``qname``
        within the zone; the wildcard applies only at that level.
        """
        encloser = qname.parent()
        while True:
            if encloser in self._records or encloser == self.origin:
                return self._records.get(encloser.child(b"*"))
            if encloser.is_root():
                return None
            encloser = encloser.parent()

    def _closest_delegation(self, qname: Name) -> Name | None:
        """The deepest delegation point at or above ``qname`` (below origin)."""
        candidate = qname
        while candidate != self.origin and not candidate.is_root():
            if candidate in self._delegations:
                return candidate
            candidate = candidate.parent()
        return None

    def _soa_authority(self) -> list[ResourceRecord]:
        soa = self._records.get(self.origin, {}).get(RRType.SOA)
        return list(soa) if soa else []

    # -- introspection -----------------------------------------------------------

    def to_text(self) -> str:
        """Serialise to master-file format (re-parseable by
        :func:`parse_zone_text`)."""
        lines = [f"$ORIGIN {self.origin}", f"$TTL {self.default_ttl}"]
        for name in sorted(self._records):
            for rtype, rrs in sorted(self._records[name].items()):
                for rr in rrs:
                    rdata_text = _rdata_to_text(rr.rdata)
                    if rdata_text is None:
                        continue  # unsupported type: skip rather than corrupt
                    owner = "@" if name == self.origin else str(name)
                    lines.append(
                        f"{owner} {rr.ttl} IN {RRType.name_of(rr.rtype)} {rdata_text}"
                    )
        return "\n".join(lines) + "\n"

    def names(self) -> list[Name]:
        return sorted(self._records)

    def all_records(self) -> list[ResourceRecord]:
        """Every record in canonical name order (AXFR body order)."""
        records: list[ResourceRecord] = []
        for name in sorted(self._records):  # canonical AXFR body order is the contract
            for rtype in sorted(self._records[name]):

                records.extend(self._records[name][rtype])
        return records

    def soa(self) -> ResourceRecord | None:
        """The zone's SOA record, if present."""
        rrs = self._records.get(self.origin, {}).get(RRType.SOA)
        return rrs[0] if rrs else None

    def record_count(self) -> int:
        return sum(len(rrs) for node in self._records.values() for rrs in node.values())

    def __contains__(self, name: Name) -> bool:
        return name in self._records


def _rdata_to_text(rdata) -> str | None:
    """Master-file presentation of supported RDATA types; None if unknown."""
    if isinstance(rdata, A):
        return str(rdata.address)
    if isinstance(rdata, (NS, CNAME)):
        return str(rdata.target)
    if isinstance(rdata, MX):
        return f"{rdata.preference} {rdata.exchange}"
    if isinstance(rdata, SRV):
        return f"{rdata.priority} {rdata.weight} {rdata.port} {rdata.target}"
    if isinstance(rdata, TXT):
        return " ".join(f'"{s.decode("ascii", "replace")}"' for s in rdata.strings)
    if isinstance(rdata, SOA):
        return (
            f"{rdata.mname} {rdata.rname} {rdata.serial} {rdata.refresh} "
            f"{rdata.retry} {rdata.expire} {rdata.minimum}"
        )
    return None


# ---------------------------------------------------------------------------
# Master-file parser (subset)
# ---------------------------------------------------------------------------

_PARSERS = {
    "A": lambda fields, origin: (RRType.A, A(fields[0])),
    "NS": lambda fields, origin: (RRType.NS, NS(_absolute(fields[0], origin))),
    "CNAME": lambda fields, origin: (RRType.CNAME, CNAME(_absolute(fields[0], origin))),
    "MX": lambda fields, origin: (RRType.MX, MX(int(fields[0]), _absolute(fields[1], origin))),
    "TXT": lambda fields, origin: (RRType.TXT, TXT(tuple(f.strip('"').encode() for f in fields))),
    "SRV": lambda fields, origin: (
        RRType.SRV,
        SRV(int(fields[0]), int(fields[1]), int(fields[2]), _absolute(fields[3], origin)),
    ),
    "SOA": lambda fields, origin: (
        RRType.SOA,
        SOA(
            _absolute(fields[0], origin),
            _absolute(fields[1], origin),
            int(fields[2]),
            int(fields[3]),
            int(fields[4]),
            int(fields[5]),
            int(fields[6]),
        ),
    ),
}


def _absolute(text: str, origin: Name) -> Name:
    """Resolve a possibly-relative master-file name against ``origin``."""
    if text == "@":
        return origin
    if text.endswith("."):
        return Name.from_text(text)
    relative = Name.from_text(text)
    return Name((*relative.labels, *origin.labels))


def parse_zone_text(text: str, origin: Name | str | None = None) -> Zone:
    """Parse a master-file-format zone (subset: $ORIGIN, $TTL, @, relative names).

    Continuation parentheses and most esoterica are unsupported — the testbed
    zones don't need them — but the common record shapes all work.
    """
    current_origin = Name.from_text(origin) if isinstance(origin, str) else origin
    default_ttl = 3600
    zone: Zone | None = None
    last_name: Name | None = None

    for raw_line in text.splitlines():
        line = raw_line.split(";", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.startswith("$ORIGIN"):
            current_origin = Name.from_text(line.split()[1])
            continue
        if line.startswith("$TTL"):
            default_ttl = int(line.split()[1])
            continue
        if current_origin is None:
            raise ValueError("zone text must set $ORIGIN (or pass origin=)")
        if zone is None:
            zone = Zone(current_origin, default_ttl=default_ttl)

        starts_with_space = line[0] in " \t"
        fields = line.split()
        if starts_with_space:
            if last_name is None:
                raise ValueError(f"continuation line with no previous owner: {raw_line!r}")
            name = last_name
        else:
            name = _absolute(fields.pop(0), current_origin)
            last_name = name

        ttl = default_ttl
        if fields and fields[0].isdigit():
            ttl = int(fields.pop(0))
        if fields and fields[0].upper() == "IN":
            fields.pop(0)
        if not fields:
            raise ValueError(f"missing record type: {raw_line!r}")
        rtype_text = fields.pop(0).upper()
        parser = _PARSERS.get(rtype_text)
        if parser is None:
            raise ValueError(f"unsupported record type {rtype_text!r}")
        rtype, rdata = parser(fields, current_origin)
        zone.add(ResourceRecord(name, rtype, RRClass.IN, ttl, rdata))

    if zone is None:
        raise ValueError("zone text contained no records")
    return zone
