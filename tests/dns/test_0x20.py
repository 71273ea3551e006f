"""DNS-0x20 case randomisation in the recursive resolver."""

from ipaddress import IPv4Address

import pytest

from repro.dns.recursive import _randomize_case
from repro.dnswire import Name, RRType
from repro.netsim import Packet, UdpDatagram, parse_address
from tests.dns.conftest import FOO_IP, Hierarchy


class TestCaseRandomisation:
    def test_randomised_name_stays_equal(self):
        import random

        rng = random.Random(3)
        name = Name.from_text("www.foo.com")
        mixed = _randomize_case(name, rng)
        assert mixed == name  # DNS equality is case-insensitive
        assert mixed.wire_length() == name.wire_length()

    def test_randomisation_actually_flips_some_case(self):
        import random

        rng = random.Random(3)
        name = Name.from_text("somelongenoughname.example.org")
        variants = {_randomize_case(name, rng).labels for _ in range(10)}
        assert len(variants) > 1

    def test_digits_and_punctuation_untouched(self):
        import random

        rng = random.Random(3)
        name = Name.from_text("a1-2b.x0")
        mixed = _randomize_case(name, rng)
        for orig, flip in zip(name.labels, mixed.labels):
            for byte_o, byte_f in zip(orig, flip):
                if not (65 <= byte_o <= 90 or 97 <= byte_o <= 122):
                    assert byte_o == byte_f


class TestResolverWith0x20:
    def test_resolution_succeeds_end_to_end(self):
        h = Hierarchy()
        assert h.lrs.use_0x20
        results = []
        h.lrs.resolve("www.foo.com", RRType.A, results.append)
        h.sim.run(until=10.0)
        assert results and results[0].ok

    def test_wrong_case_echo_rejected(self):
        """A forged response with the right id but un-echoed casing fails."""
        h = Hierarchy(seed=12)
        # off-path attacker node
        from repro.netsim import Link, Node

        attacker = Node(h.sim, "offpath")
        attacker.add_address("10.66.0.66")
        link = Link(h.sim, attacker, h.router, delay=0.00001)
        attacker.set_default_route(link)
        h.router.add_route("10.66.0.66/32", link)

        results = []
        h.lrs.resolve("www.foo.com", RRType.A, results.append)
        # forge answers with every plausible msg id but all-lowercase qname:
        # even an attacker who guesses the id and port fails the 0x20 echo
        # (probabilistically — "www.foo.com" has 9 letters => 1/512 chance
        # per guess of matching; none of these lowercase forgeries can)
        from repro.dnswire import Header, Message, Question, RRClass, a_record

        for port in range(49152, 49156):
            for msg_id in range(0, 65536, 512):
                forged = Message(header=Header(msg_id=msg_id, qr=True, aa=True))
                lower = Name.from_text("www.foo.com")
                forged.questions.append(Question(lower, RRType.A, RRClass.IN))
                forged.answers.append(a_record(lower, "6.6.6.6", ttl=3600))
                attacker.send(
                    Packet(
                        src=parse_address(FOO_IP),
                        dst=parse_address("10.0.0.53"),
                        segment=UdpDatagram(53, port, forged),
                    )
                )
        h.sim.run(until=10.0)
        assert results and results[0].ok
        assert results[0].addresses() == [IPv4Address("198.51.100.80")]

    def test_guard_cookie_labels_survive_0x20(self):
        """The guard verifies cookie labels case-insensitively, so 0x20
        resolvers work through it unmodified."""
        from repro.experiments.hierarchy import GuardedHierarchy, WWW_IP

        h = GuardedHierarchy(guard_root=True, guard_foo=True)
        assert h.lrs.use_0x20
        result = h.resolve("www.foo.com")
        assert result.ok
        assert result.addresses() == [WWW_IP]

    def test_0x20_can_be_disabled(self):
        h = Hierarchy()
        h.lrs.use_0x20 = False
        results = []
        h.lrs.resolve("www.foo.com", RRType.A, results.append)
        h.sim.run(until=10.0)
        assert results and results[0].ok
