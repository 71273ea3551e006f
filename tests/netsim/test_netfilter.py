"""The node's interception table: four hooks, three verdicts, one cascade."""

import collections
import ipaddress
import sys
from ipaddress import IPv4Address

import pytest

from repro.netsim import (
    Cpu,
    Hook,
    Link,
    Node,
    Simulator,
    Verdict,
    netfilter,
    parse_address,
    simulator,
)
from repro.netsim.netfilter import src_in, src_not_in
from repro.netsim.packet import Packet, UdpDatagram

SERVER = parse_address("203.0.113.53")


def chainlet(seed=0):
    """client -- fw (router) -- server, for transit filtering tests."""
    sim = Simulator(seed=seed)
    client = Node(sim, "client")
    client.add_address("10.0.0.1")
    fw = Node(sim, "fw")
    fw.add_address("10.0.0.254")
    server = Node(sim, "server")
    server.add_address(SERVER)
    l1 = Link(sim, client, fw, delay=0.0001)
    l2 = Link(sim, fw, server, delay=0.0001)
    client.set_default_route(l1)
    server.set_default_route(l2)
    fw.add_route("10.0.0.0/24", l1)
    fw.add_route("203.0.113.0/24", l2)
    return sim, client, fw, server


def dport(port):
    return lambda packet: packet.segment.dport == port


#: which hooks each kind of packet crosses on the node under test (``fw``)
CROSSES = {
    "owned": {Hook.PREROUTING, Hook.LOCAL_IN},
    "transit": {Hook.PREROUTING, Hook.FORWARD},
    "originated": {Hook.LOCAL_OUT},
}
#: fw's (dropped, delivered, forwarded) when no rule interferes
UNFILTERED = {"owned": (0, 1, 0), "transit": (0, 0, 1), "originated": (0, 0, 0)}


class TestHookVerdictTable:
    @pytest.mark.parametrize("path", list(CROSSES))
    @pytest.mark.parametrize("verdict", list(Verdict))
    @pytest.mark.parametrize("hook", list(Hook))
    def test_counters_for_every_hook_verdict_and_path(self, hook, verdict, path):
        sim, client, fw, server = chainlet()
        fw.filters.append(hook, verdict=verdict)
        at_fw, at_server = [], []
        fw.udp.bind(53, lambda p, s, sp, d: at_fw.append(d))
        server.udp.bind(53, lambda p, s, sp, d: at_server.append(d))
        if path == "owned":
            client.udp.bind_ephemeral(lambda *a: None).send(b"x", fw.address, 53)
        elif path == "transit":
            client.udp.bind_ephemeral(lambda *a: None).send(b"x", SERVER, 53)
        else:
            sent = fw.udp.bind_ephemeral(lambda *a: None).send(b"x", SERVER, 53)
        sim.run(until=1.0)

        if hook not in CROSSES[path] or verdict is Verdict.ACCEPT:
            expected = UNFILTERED[path]
        elif verdict is Verdict.DELIVER and hook is Hook.FORWARD:
            expected = (0, 1, 0)  # hijacked: fw's own stack gets the server's packet
            assert at_fw == [SERVER]
        else:
            expected = (1, 0, 0)  # nowhere else to send it: anything but ACCEPT drops
        assert (fw.packets_dropped, fw.packets_delivered, fw.packets_forwarded) == expected
        reaches_server = path != "owned" and expected == UNFILTERED[path]
        assert at_server == ([SERVER] if reaches_server else [])
        if path == "originated":
            assert sent is reaches_server


class TestRules:
    def test_rule_requires_exactly_one_action(self):
        filters = Node(Simulator(), "n").filters
        with pytest.raises(ValueError):
            filters.append(Hook.FORWARD)
        with pytest.raises(ValueError):
            filters.append(Hook.FORWARD, verdict=Verdict.DROP, target=lambda p: Verdict.DROP)
        assert filters.forward == []

    def test_match_selects_the_packets_a_rule_judges(self):
        sim, client, fw, server = chainlet()
        fw.filters.append(Hook.FORWARD, dport(53), Verdict.DROP)
        judged = []
        fw.filters.append(
            Hook.FORWARD, dport(80), target=lambda p: judged.append(p) or Verdict.ACCEPT
        )
        got = []
        server.udp.bind(53, lambda p, s, sp, d: got.append(p))
        server.udp.bind(80, lambda p, s, sp, d: got.append(p))
        sock = client.udp.bind_ephemeral(lambda *a: None)
        sock.send(b"dns", SERVER, 53)
        sock.send(b"web", SERVER, 80)
        sim.run(until=1.0)
        assert got == [b"web"]
        assert len(judged) == 1

    def test_accept_does_not_shield_a_later_drop(self):
        """The rules are a conjunction, not first-match-wins: an ACCEPT only
        passes the packet to the next layer of the cascade."""
        sim, client, fw, server = chainlet()
        order = []
        fw.filters.append(Hook.FORWARD, target=lambda p: order.append("first") or Verdict.ACCEPT)
        fw.filters.append(Hook.FORWARD, verdict=Verdict.DROP)
        fw.filters.append(Hook.FORWARD, target=lambda p: order.append("third") or Verdict.ACCEPT)
        got = []
        server.udp.bind(53, lambda p, s, sp, d: got.append(p))
        client.udp.bind_ephemeral(lambda *a: None).send(b"x", SERVER, 53)
        sim.run(until=1.0)
        assert got == []
        assert order == ["first"]  # nothing runs after the verdict that stopped it
        assert fw.packets_dropped == 1


class TestChainsAndHooks:
    def test_forward_drop_blocks_transit(self):
        sim, client, fw, server = chainlet()
        fw.filters.append(Hook.FORWARD, verdict=Verdict.DROP)
        got = []
        server.udp.bind(53, lambda p, s, sp, d: got.append(p))
        client.udp.bind_ephemeral(lambda *a: None).send(b"x", SERVER, 53)
        sim.run(until=1.0)
        assert got == []
        assert fw.packets_dropped == 1

    def test_local_in_protects_node_itself(self):
        sim, client, fw, server = chainlet()
        server.filters.append(Hook.LOCAL_IN, dport(53), Verdict.DROP)
        got = []
        server.udp.bind(53, lambda p, s, sp, d: got.append(p))
        client.udp.bind_ephemeral(lambda *a: None).send(b"x", SERVER, 53)
        sim.run(until=1.0)
        assert got == []

    def test_local_out_blocks_origination(self):
        sim, client, fw, server = chainlet()
        client.filters.append(Hook.LOCAL_OUT, lambda packet: packet.dst == SERVER, Verdict.DROP)
        got = []
        server.udp.bind(53, lambda p, s, sp, d: got.append(p))
        sock = client.udp.bind_ephemeral(lambda *a: None)
        assert sock.send(b"x", SERVER, 53) is False
        sim.run(until=1.0)
        assert got == []

    def test_prerouting_applies_to_delivered_and_forwarded(self):
        sim, client, fw, server = chainlet()
        fw.filters.append(Hook.PREROUTING, src_in("10.0.0.0/24"), Verdict.DROP)
        got = []
        server.udp.bind(53, lambda p, s, sp, d: got.append(p))
        fw.udp.bind(53, lambda p, s, sp, d: got.append(p))
        sock = client.udp.bind_ephemeral(lambda *a: None)
        sock.send(b"transit", SERVER, 53)
        sock.send(b"local", IPv4Address("10.0.0.254"), 53)
        sim.run(until=1.0)
        assert got == []

    def test_nodes_without_filters_pay_nothing(self):
        """The budget: a packet crossing rule-less hooks — originated,
        forwarded in transit, delivered — never enters the netfilter module."""
        sim, client, fw, server = chainlet()
        got = []
        server.udp.bind(53, lambda p, s, sp, d: got.append(p))
        sock = client.udp.bind_ephemeral(lambda *a: None)
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == netfilter.__file__:
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            sock.send(b"x", SERVER, 53)
            sim.run(until=1.0)
        finally:
            sys.setprofile(None)
        assert got == [b"x"] and fw.packets_forwarded == 1
        assert calls == []


def profiled(fn, on_event):
    """Run ``fn()`` with ``on_event(frame, event, arg)`` as the profile hook."""
    sys.setprofile(on_event)
    try:
        return fn()
    finally:
        sys.setprofile(None)


class TestHopBudget:
    """What one hop costs, counted in frames rather than timed: the bare
    forwarding path is what ``flood_unguarded`` measures, and each of these
    frames was paid per packet or per event before it was removed."""

    def test_a_transit_packet_hashes_no_address(self):
        """Between ``Node.receive`` on a router (rule-less, charging a
        ``forward_cost``) and the ``schedule_at`` of the next hop's
        ``receive``, nothing in ``ipaddress.py`` runs: the ownership test
        and the route lookup key on the address's integer."""
        sim, client, fw, server = chainlet()
        fw.forward_cost = 1e-6
        arriving = fw.links[0]

        def transit():
            return Packet(
                src=client.address, dst=SERVER, segment=UdpDatagram(4000, 53, b"x")
            )

        fw.receive(transit(), arriving)  # a first hop, outside the profile
        sim.run(until=1.0)
        frames, scheduled = [], []

        def on_event(frame, event, arg):
            if event != "call":
                return
            code = frame.f_code
            if code.co_filename == ipaddress.__file__:
                frames.append(code.co_name)
            elif code is Simulator.schedule_at.__code__:
                scheduled.append(frame.f_locals["callback"])

        def hop():
            fw.receive(transit(), arriving)  # -> cpu.submit -> schedule_at(link.transmit)
            sim.step()  # link.transmit -> schedule_at(server.receive)

        profiled(hop, on_event)
        assert scheduled == [fw.links[1].transmit, server.receive]
        assert fw.packets_forwarded == 2
        assert frames == []

    @pytest.mark.parametrize("later", [False, True])
    def test_run_enters_one_step_frame_per_event_and_one_to_stop(self, later):
        """``run(until=)`` over N scheduled events: N + 1 ``step`` frames —
        the last finds the heap empty, or its head later than ``until`` —
        and nothing else from ``simulator.py``."""
        sim = Simulator()
        n = 50
        for index in range(n):
            sim.schedule(index * 0.01, int)
        if later:
            sim.schedule(2.0, int)
        names = collections.Counter()

        def on_event(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == simulator.__file__:
                names[frame.f_code.co_name] += 1

        profiled(lambda: sim.run(until=1.0), on_event)
        assert (sim.events_processed, sim.now) == (n, 1.0)
        assert names == {"run": 1, "step": n + 1}

    def test_cpu_submit_calls_no_builtin(self):
        """Backlog and start time are two comparisons, not two ``max()``."""
        sim = Simulator()
        cpu = Cpu(sim, queue_limit=0.001)
        builtins_called = []

        def on_event(frame, event, arg):
            if event == "c_call" and frame.f_code is Cpu.submit.__code__:
                builtins_called.append(arg.__name__)

        def every_branch():
            assert cpu.submit(0.0004, int)  # idle: starts now
            assert cpu.submit(0.0004, None)  # queued behind it, pure accounting
            assert cpu.submit(0.0004, int, 1)
            assert not cpu.submit(0.0004, int)  # over the limit: dropped
            assert not cpu.submit(0.0004, None)  # dropped, still burned

        profiled(every_branch, on_event)
        assert (cpu.jobs_accepted, cpu.jobs_dropped) == (3, 2)
        assert cpu.busy_until == pytest.approx(0.0016)
        assert builtins_called == []

    def test_link_transmit_does_not_look_up_its_peer(self):
        """A direction knows the node it feeds; ``Link.other`` stays the
        public, checked lookup and is off the per-packet path."""
        sim, client, fw, server = chainlet()
        got = []
        server.udp.bind(53, lambda p, s, sp, d: got.append(p))
        sock = client.udp.bind_ephemeral(lambda *a: None)
        names = collections.Counter()

        def on_event(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == Link.transmit.__code__.co_filename:
                names[frame.f_code.co_name] += 1

        def exchange():
            sock.send(b"x", SERVER, 53)
            sim.run(until=1.0)

        profiled(exchange, on_event)
        assert got == [b"x"]
        assert names == {"transmit": 2}
        assert client.links[0].other(client) is fw and client.links[0].other(fw) is client

    @staticmethod
    def ipaddress_frames(fn):
        """``fn()`` and the names of the ``ipaddress.py`` frames it entered."""
        frames = []

        def on_event(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == ipaddress.__file__:
                frames.append(frame.f_code.co_qualname)

        return profiled(fn, on_event), frames

    def test_udp_demux_and_a_route_miss_enter_nothing_in_ipaddress(self):
        """The socket table keys on ``(dst, port)`` and a route lookup probes
        one integer table per prefix length: a flood's replies go to random
        spoofed sources, so no lookup may build or hash an address object."""
        sim, client, fw, server = chainlet()
        got = []
        server.udp.bind(53, lambda p, s, sp, d: got.append(p))
        delivered = Packet(
            src=client.address, dst=SERVER, segment=UdpDatagram(4000, 53, b"x")
        )
        # fw has two routes, no default and two links: a miss can end in None
        misses = [parse_address(text) for text in ("10.0.0.77", "203.0.113.9", "198.51.100.1")]

        def lookups():
            server.receive(delivered, server.links[0])
            return [fw.route_for(dst) for dst in misses]

        routes, frames = self.ipaddress_frames(lookups)
        assert got == [b"x"] and server.udp.datagrams_unmatched == 0
        assert routes == [fw.links[0], fw.links[1], None]
        assert frames == []

    def test_a_steady_outbound_query_through_a_local_guard_hashes_no_address(self):
        """Once the cookie is cached, the local guard's per-query table
        lookups key on ``(server, client)`` integers: the query is stamped
        and re-sent without entering ``ipaddress.py``."""
        from repro.dns import LrsSimulator
        from repro.dnswire import make_query
        from repro.experiments.testbed import ANS_ADDRESS, GuardTestbed

        bed = GuardTestbed(ans="simulator", ans_mode="answer")
        client = bed.add_client("lrs", via_local_guard=True)
        lrs = LrsSimulator(client, ANS_ADDRESS, workload="plain")
        lrs.start()
        bed.run(0.01)
        lrs.stop()
        bed.run(0.01)
        guard = client.local_guard
        assert guard.cached_cookie(ANS_ADDRESS, client.address) is not None
        query = Packet(
            src=client.address, dst=ANS_ADDRESS,
            segment=UdpDatagram(4000, 53, make_query("www.foo.com", msg_id=9)),
        )
        stamped = guard.queries_stamped
        from_lrs = guard.node.links[0]
        assert from_lrs.other(guard.node) is client
        _, frames = self.ipaddress_frames(lambda: guard.node.receive(query, from_lrs))
        assert guard.queries_stamped == stamped + 1
        assert frames == []

    def test_a_transit_hop_enters_its_forward_rule_and_no_netfilter_frame(self):
        """The ``FORWARD`` cascade runs inline in ``Node.receive``: a hop
        through a one-rule node enters that rule and nothing in
        ``netfilter.py``."""
        sim, client, fw, server = chainlet()
        judged = []

        def rule(packet):
            judged.append(packet)
            return Verdict.ACCEPT

        fw.filters.append(Hook.FORWARD, target=rule)
        transit = Packet(
            src=client.address, dst=SERVER, segment=UdpDatagram(4000, 53, b"x")
        )
        names = collections.Counter()

        def on_event(frame, event, arg):
            if event != "call":
                return
            if frame.f_code is rule.__code__:
                names["rule"] += 1
            elif frame.f_code.co_filename == netfilter.__file__:
                names[frame.f_code.co_name] += 1

        profiled(lambda: fw.receive(transit, fw.links[0]), on_event)
        assert judged == [transit] and fw.packets_forwarded == 1
        assert names == {"rule": 1}

    def test_a_packet_crossing_two_links_is_sized_once(self):
        """The first ``Link.transmit`` measures the packet in one frame and
        memoises it; the router's link reads the memo, and the payload's own
        ``size`` property never runs."""
        from repro.dnswire import make_query

        sim, client, fw, server = chainlet()
        got = []
        server.udp.bind(53, lambda p, s, sp, d: got.append(p))
        sock = client.udp.bind_ephemeral(lambda *a: None)
        query = make_query("www.foo.com", msg_id=3)
        sized = []

        def on_event(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "size":
                sized.append(frame.f_code.co_qualname)

        def exchange():
            sock.send(query, SERVER, 53)
            sim.run(until=1.0)

        profiled(exchange, on_event)
        assert got == [query] and fw.packets_forwarded == 1
        assert sized == ["Packet.size"]
        wire = 20 + 8 + len(query.encode())
        assert client.links[0].stats(client)[2] == fw.links[1].stats(fw)[2] == wire


class TestEncodeBudget:
    """What a steady exchange serialises, counted rather than timed: every
    message on these paths is derived from a frozen prototype, so once the
    first request has completed (prototypes built, cookie granted) nothing
    is encoded again — the shape is serialised once, not once per packet."""

    @staticmethod
    def encodes_after_first_completion(bed, lrs, duration):
        from repro.dnswire import Message

        lrs.start()
        while lrs.stats.completed == 0:
            assert bed.sim.step()
        encodes = []

        def on_event(frame, event, arg):
            if event == "call" and frame.f_code is Message._encode_once.__code__:
                encodes.append(frame.f_back.f_code.co_name)

        before = lrs.stats.completed
        profiled(lambda: bed.run(duration), on_event)
        return encodes, lrs.stats.completed - before

    def test_ns_name_cache_miss_exchange_encodes_nothing(self):
        """Messages 1-6 of Fig 2 (the ``referral_miss`` workload): the LRS's
        two queries, the fabricated referral, the restored query, the ANS
        reply and the cookie-name answer."""
        from repro.dns import LrsSimulator
        from repro.experiments.testbed import ANS_ADDRESS, GuardTestbed

        bed = GuardTestbed(ans="simulator", ans_mode="referral")
        lrs = LrsSimulator(
            bed.add_client("lrs"), ANS_ADDRESS, workload="referral", cache_cookies=False
        )
        encodes, completed = self.encodes_after_first_completion(bed, lrs, 0.02)
        assert completed > 20 and bed.guard.referrals_fabricated > 20
        assert encodes == []

    def test_modified_dns_exchange_through_a_local_guard_encodes_nothing(self):
        """Fig 3a once the cookie is cached (the ``flood_modified`` legitimate
        path): LRS query, local-guard stamp, remote-guard strip, ANS reply."""
        from repro.dns import LrsSimulator
        from repro.experiments.testbed import ANS_ADDRESS, GuardTestbed

        bed = GuardTestbed(ans="simulator", ans_mode="answer")
        lrs = LrsSimulator(bed.add_client("lrs", via_local_guard=True), ANS_ADDRESS)
        encodes, completed = self.encodes_after_first_completion(bed, lrs, 0.02)
        assert completed > 20 and bed.guard.valid_cookies > 20
        assert encodes == []


class TestIngressFiltering:
    def test_rfc2827_blocks_spoofing_at_the_edge(self):
        """An edge router dropping out-of-subnet sources stops spoofing."""
        sim, client, edge, server = chainlet()
        edge.filters.append(Hook.FORWARD, src_not_in("10.0.0.0/24"), Verdict.DROP)
        seen = []
        server.udp.bind(53, lambda p, s, sp, d: seen.append(s))
        sock = client.udp.bind_ephemeral(lambda *a: None)
        sock.send(b"honest", SERVER, 53)
        sock.send(b"spoof", SERVER, 53, src=IPv4Address("8.8.8.8"))
        sim.run(until=1.0)
        assert seen == [parse_address("10.0.0.1")]


class TestGuardAndIngressOnOneNode:
    def test_layers_compose_in_insertion_order(self):
        """The guard is one rule of its node's FORWARD cascade: an ingress
        filter ahead of it spares it the work, a rule behind it sees only
        what it let through, and a cookie holder is served through both."""
        from repro.attack import SpoofingAttacker
        from repro.dns import LrsSimulator
        from repro.experiments.testbed import ANS_ADDRESS, GuardTestbed

        bed = GuardTestbed(ans="simulator", ans_mode="answer")  # installs the guard rule
        node = bed.guard_node
        outside = src_not_in("10.0.0.0/24")
        node.filters.append(
            Hook.PREROUTING, lambda p: p.dst == ANS_ADDRESS and outside(p), Verdict.DROP
        )
        behind_guard = []
        node.filters.append(
            Hook.FORWARD, target=lambda p: behind_guard.append(p) or Verdict.ACCEPT
        )

        # spoofed from outside the customer subnet: gone before the guard
        # rule runs, so the guard neither counts nor charges CPU for it
        outsider = SpoofingAttacker(
            bed.add_client("outsider"), ANS_ADDRESS, rate=50_000,
            fixed_source=IPv4Address("172.30.0.9"), carry_invalid_cookie=True,
        )
        outsider.start()
        bed.run(0.01)
        outsider.stop()
        bed.run(0.01)
        assert outsider.packets_sent > 100
        assert node.packets_dropped == outsider.packets_sent
        assert bed.guard.queries_seen == 0
        assert node.cpu.jobs_accepted == 0 and node.cpu.completed_busy_seconds() == 0.0

        # forged from inside it: past the ingress rule, stopped by the guard,
        # never shown to the rule behind the guard
        insider = SpoofingAttacker(
            bed.add_client("insider"), ANS_ADDRESS, rate=50_000,
            fixed_source=IPv4Address("10.0.0.200"), carry_invalid_cookie=True,
        )
        lrs = LrsSimulator(
            bed.add_client("legit", via_local_guard=True), ANS_ADDRESS,
            workload="plain", concurrency=4,
        )
        insider.start()
        lrs.start()
        bed.run(0.05)
        insider.stop()
        lrs.stop()
        bed.run(0.01)
        assert bed.guard.invalid_drops >= insider.packets_sent > 100
        assert bed.guard.valid_cookies > 0 and lrs.stats.completed > 100
        # what the guard accepted is the ANS's answers on their way back
        assert len(behind_guard) >= lrs.stats.completed
        assert {p.src for p in behind_guard} == {ANS_ADDRESS}
