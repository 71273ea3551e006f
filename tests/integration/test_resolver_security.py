"""Off-path attacker resistance of the recursive resolver.

Not a paper experiment per se, but a property the substrate must have for
the testbed to be meaningful: spoofed *responses* (cache poisoning) are
rejected unless the attacker guesses the message ID, ephemeral port and
queried server simultaneously.
"""

from ipaddress import IPv4Address

import pytest

from repro.dnswire import Header, Message, Question, RRClass, RRType, a_record, Name
from repro.netsim import Link, Node, Packet, UdpDatagram, parse_address
from tests.dns.conftest import FOO_IP, Hierarchy, ROOT_IP


def forged_response(msg_id: int, qname: str, address: str) -> Message:
    msg = Message(header=Header(msg_id=msg_id, qr=True, aa=True))
    name = Name.from_text(qname)
    msg.questions.append(Question(name, RRType.A, RRClass.IN))
    msg.answers.append(a_record(name, address, ttl=3600))
    return msg


class TestPoisoningResistance:
    def _attacker(self, h):
        node = Node(h.sim, "offpath")
        node.add_address("10.66.0.66")
        link = Link(h.sim, node, h.router, delay=0.00001)
        node.set_default_route(link)
        h.router.add_route("10.66.0.66/32", node.links[0])
        return node

    def test_blind_spoofed_responses_rejected(self):
        """An off-path attacker sprays forged answers at the resolver while
        it resolves; wrong msg-id/port/source combinations never land."""
        h = Hierarchy(seed=2)
        attacker = self._attacker(h)
        results = []
        h.lrs.resolve("www.foo.com", RRType.A, results.append)

        # spray forged responses claiming to come from the foo server, at
        # guessed ephemeral ports and message IDs
        for port in range(49152, 49162):
            for msg_id in range(0, 2000, 97):
                packet = Packet(
                    src=parse_address(FOO_IP),
                    dst=parse_address("10.0.0.53"),
                    segment=UdpDatagram(
                        53, port,
                        forged_response(msg_id, "www.foo.com", "6.6.6.6"),
                    ),
                )
                attacker.send(packet)
        h.sim.run(until=10.0)
        assert results and results[0].ok
        assert results[0].addresses() == [IPv4Address("198.51.100.80")]
        # and nothing poisoned the cache
        cached = h.lrs.cache.get(Name.from_text("www.foo.com"), RRType.A, h.sim.now)
        assert cached is not None
        assert all(rr.rdata.address != IPv4Address("6.6.6.6") for rr in cached)

    def test_wrong_source_rejected_even_with_right_id(self):
        """Responses must come from the queried server's address."""
        h = Hierarchy(seed=3)
        attacker = self._attacker(h)
        results = []
        h.lrs.resolve("www.foo.com", RRType.A, results.append)

        # forge from a *wrong* server address with every plausible msg id
        for port in range(49152, 49156):
            for msg_id in range(0, 65536, 256):
                packet = Packet(
                    src=parse_address("10.66.0.66"),
                    dst=parse_address("10.0.0.53"),
                    segment=UdpDatagram(
                        53, port,
                        forged_response(msg_id, "www.foo.com", "6.6.6.6"),
                    ),
                )
                attacker.send(packet)
        h.sim.run(until=10.0)
        assert results and results[0].ok
        assert results[0].addresses() == [IPv4Address("198.51.100.80")]

    def test_unsolicited_responses_ignored(self):
        """Responses with no outstanding query do nothing at all."""
        h = Hierarchy()
        attacker = self._attacker(h)
        for msg_id in range(100):
            packet = Packet(
                src=parse_address(ROOT_IP),
                dst=parse_address("10.0.0.53"),
                segment=UdpDatagram(
                    53, 49152,
                    forged_response(msg_id, "victim.example", "6.6.6.6"),
                ),
            )
            attacker.send(packet)
        h.sim.run(until=1.0)
        assert h.lrs.cache.get(Name.from_text("victim.example"), RRType.A, h.sim.now) is None

    def test_message_ids_not_sequential_from_zero(self):
        """The resolver's IDs start from a random point (harder to guess)."""
        ids = set()
        for seed in range(5):
            h = Hierarchy(seed=seed)
            ids.add(h.lrs._next_msg_id)
        assert len(ids) > 1
