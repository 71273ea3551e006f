"""Addresses compared across the config edge: one representation on both sides.

Inside the simulator an address is an ``int``; configuration may spell it as
text or ``IPv4Address`` (``repro/netsim/address.py``).  ``int ==
IPv4Address`` is silently ``False``, so a value that stayed an
``IPv4Address`` on one side of a comparison shows only as behaviour: the
Fig 5 policy would challenge LRS2 like everyone else, and a resolver would
drop its own server's replies.  Both are driven end to end here.
"""

from ipaddress import IPv4Address

import pytest

from repro.dns import LocalRecursiveServer
from repro.dnswire import RRType, a_record, make_query, make_response
from repro.experiments.fig5 import LRS1_IP, LRS2_IP, lrs_policy
from repro.experiments.testbed import ANS_ADDRESS, GuardTestbed
from repro.netsim import Link, Node, Simulator


def bench_policy(source):
    # spelled as the benchmark's ``bind_mixed`` workload spells it
    return "tcp" if source == LRS2_IP else "dns"


@pytest.mark.parametrize("policy", [lrs_policy, bench_policy], ids=["fig5", "bench"])
def test_the_fig5_policy_sends_lrs2_to_tcp_and_lrs1_to_dns(policy):
    bed = GuardTestbed(ans="bind", zone_origin="foo.com.", guard_policy=policy)
    replies = {}
    for name, address in (("lrs1", LRS1_IP), ("lrs2", LRS2_IP)):
        node = bed.add_client(name, address=address)
        socket = node.udp.bind_ephemeral(
            lambda payload, src, sport, dst, name=name: replies.setdefault(name, payload)
        )
        socket.send(make_query("www.foo.com", msg_id=7), ANS_ADDRESS, 53)
    bed.run(0.05)
    assert (bed.guard.truncations_sent, bed.guard.referrals_fabricated) == (1, 1)
    assert replies["lrs2"].header.tc  # the TCP scheme: retry over TCP
    assert not replies["lrs1"].header.tc and replies["lrs1"].authorities  # a cookie referral


SERVER, FORGER, RESOLVER = "192.0.2.53", "192.0.2.66", "10.0.0.53"


@pytest.mark.parametrize("hint", [SERVER, IPv4Address(SERVER)], ids=["text", "IPv4Address"])
def test_a_resolver_takes_its_servers_reply_and_not_a_forgers(hint):
    """The server answers twice: first a forged reply claiming another
    source, then its own.  Only the second may resolve the name."""
    sim = Simulator(seed=1)
    resolver_node, server_node = Node(sim, "lrs"), Node(sim, "server")
    resolver_node.add_address(RESOLVER)
    server_node.add_address(SERVER)
    Link(sim, resolver_node, server_node, delay=0.001)

    def answer(query, src, sport, dst):
        for source, address in ((FORGER, "6.6.6.6"), (None, "198.51.100.80")):
            reply = make_response(query)
            reply.answers.append(a_record(query.question.qname, address))
            socket.send(reply, src, sport, src=source)

    socket = server_node.udp.bind(53, answer)
    resolver = LocalRecursiveServer(resolver_node, [hint], timeout=0.5, retries=1)
    results = []
    resolver.resolve("www.foo.com", RRType.A, results.append)
    sim.run(until=5.0)
    assert [result.status for result in results] == ["ok"]
    assert results[0].addresses() == [IPv4Address("198.51.100.80")]
