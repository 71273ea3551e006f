"""A secondary (slave) authoritative server fed by AXFR (RFC 5936 subset).

Pulls a zone from its primary over TCP, rebuilds it locally, and can then
serve it through a regular :class:`~repro.dns.AuthoritativeServer` — the
standard redundancy arrangement among the multiple ANSs per domain that
§III.B's multi-address fabricated names support.
"""

from __future__ import annotations

import dataclasses
from ipaddress import IPv4Address
from typing import Callable

from ..dnswire import Message, Name, Rcode, RRType, make_query
from ..netsim import Node, TcpConnection
from .framing import StreamFramer, frame
from .zone import Zone


@dataclasses.dataclass(slots=True)
class TransferResult:
    """Outcome of one AXFR attempt."""

    status: str  # "ok" | "refused" | "timeout" | "error"
    zone: Zone | None
    records: int
    serial: int | None


class SecondaryServer:
    """Transfers zones from a primary and tracks their serials."""

    def __init__(self, node: Node, primary: IPv4Address, *, timeout: float = 5.0):
        self.node = node
        self.primary = primary
        self.timeout = timeout
        self.zones: dict[Name, Zone] = {}
        self.serials: dict[Name, int] = {}
        self.transfers_completed = 0
        self.transfers_failed = 0
        self._next_id = node.sim.rng.randrange(0, 0xFFFF)

    def transfer(
        self, origin: Name | str, callback: Callable[[TransferResult], None]
    ) -> None:
        """Start an AXFR for ``origin``; ``callback`` fires when done."""
        origin = Name.from_text(origin) if isinstance(origin, str) else origin
        self._next_id = (self._next_id + 1) & 0xFFFF
        msg_id = self._next_id
        query = make_query(origin, RRType.AXFR, msg_id=msg_id)
        framer = StreamFramer()
        collected: list = []
        soa_seen = 0
        done = [False]

        def finish(result: TransferResult) -> None:
            if done[0]:
                return
            done[0] = True
            deadline.cancel()
            if result.status == "ok":
                self.transfers_completed += 1
                self.zones[origin] = result.zone
                self.serials[origin] = result.serial
            else:
                self.transfers_failed += 1
            callback(result)

        def on_data(conn: TcpConnection, data: bytes) -> None:
            nonlocal soa_seen
            if data == b"":
                return
            for message in framer.feed_or_abort(conn, data) or ():
                if message.header.msg_id != msg_id:
                    continue
                if message.header.rcode != Rcode.NOERROR:
                    conn.close()
                    finish(TransferResult("refused", None, 0, None))
                    return
                for rr in message.answers:
                    if rr.rtype == RRType.SOA:
                        soa_seen += 1
                        if soa_seen == 1:
                            collected.append(rr)
                        if soa_seen == 2:
                            conn.close()
                            finish(self._assemble(origin, collected))
                            return
                    else:
                        collected.append(rr)

        def on_close(conn: TcpConnection, error: bool) -> None:
            if error and not done[0]:
                finish(TransferResult("error", None, 0, None))

        conn = self.node.tcp.connect(
            self.primary, 53,
            on_established=lambda c: c.send(frame(query)),
            on_data=on_data,
            on_close=on_close,
        )
        deadline = self.node.sim.schedule(
            self.timeout, lambda: (conn.abort(), finish(TransferResult("timeout", None, 0, None)))
        )

    def _assemble(self, origin: Name, records: list) -> TransferResult:
        zone = Zone(origin)
        serial = None
        for rr in records:
            zone.add(rr)
            if rr.rtype == RRType.SOA:
                serial = rr.rdata.serial
        return TransferResult("ok", zone, zone.record_count(), serial)
