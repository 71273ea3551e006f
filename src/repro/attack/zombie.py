"""Non-spoofed (zombie) flood: the attack Rate-Limiter2 exists for (§III.G).

A compromised host uses its *real* address, plays the protocol honestly to
obtain a valid cookie, then floods.  Spoof detection cannot touch it — every
cookie verifies — so the guard's only defence is the per-host nominal rate
of Rate-Limiter2.
"""

from __future__ import annotations


from ..dnswire import Message, Name, ZERO_COOKIE, attach_cookie, extract_cookie, make_query
from ..netsim import Address, Node, parse_address
from .spoof import BATCH_INTERVAL


class ZombieFlood:
    """Obtains a modified-DNS cookie legitimately, then floods with it."""

    def __init__(
        self,
        node: Node,
        target: Address,
        *,
        rate: float,
        qname: Name | str = "www.foo.com",
    ):
        if rate <= 0:
            raise ValueError("attack rate must be positive")
        self.node = node
        self.target = parse_address(target)
        self.rate = rate
        self.qname = Name.from_text(qname) if isinstance(qname, str) else qname
        self.cookie: bytes | None = None
        self.packets_sent = 0
        self.responses_received = 0
        self._carry = 0.0
        self._running = False
        self._socket = node.udp.bind_ephemeral(self._on_response)

    # -- phase 1: be a good citizen ------------------------------------------------

    def start(self) -> None:
        self._running = True
        probe = attach_cookie(make_query(self.qname, msg_id=1), ZERO_COOKIE)
        self._socket.send(probe, self.target, 53)

    def stop(self) -> None:
        self._running = False

    def _on_response(self, payload: Message | bytes, src: int, sport: int, dst: int) -> None:
        if not isinstance(payload, Message):
            return
        cookie = extract_cookie(payload)
        if cookie is not None and cookie != ZERO_COOKIE and self.cookie is None:
            self.cookie = cookie
            self._emit_batch()
            return
        self.responses_received += 1

    # -- phase 2: flood with the valid cookie -----------------------------------------

    def _emit_batch(self) -> None:
        if not self._running or self.cookie is None:
            return
        sim = self.node.sim
        quota = self.rate * BATCH_INTERVAL + self._carry
        count = int(quota)
        self._carry = quota - count
        spacing = BATCH_INTERVAL / count if count else 0.0
        for i in range(count):
            query = attach_cookie(
                make_query(self.qname, msg_id=(self.packets_sent + i) & 0xFFFF), self.cookie
            )
            sim.schedule(i * spacing, self._socket.send, query, self.target, 53)
        self.packets_sent += count
        sim.schedule(BATCH_INTERVAL, self._emit_batch)
