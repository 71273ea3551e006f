"""A TCP reader that is sent bytes which do not decode hangs up and fails the
request; nothing escapes ``Simulator.run``.

The server below answers every UDP query with TC=1 (so fallbacks take TCP)
and every TCP stream with one well-framed but malformed message, five bytes
that are shorter than a DNS header.
"""

from ipaddress import IPv4Address

from repro.dns import LocalRecursiveServer, LrsSimulator, SecondaryServer, TcpLoadClient
from repro.dnswire import Message, make_truncated_response
from repro.netsim import Link, Node, Simulator

SERVER_IP = IPv4Address("203.0.113.53")
CLIENT_IP = IPv4Address("10.0.0.7")
MALFORMED = b"\x00\x05hello"


class MalformedServer:
    """TC=1 over UDP, five undecodable bytes over TCP."""

    def __init__(self, node: Node):
        self.node = node
        self.aborted = 0
        self.socket = node.udp.bind(53, self._on_query)
        node.tcp.listen(53, self._on_connection)

    def _on_query(self, payload, src, sport, dst) -> None:
        if isinstance(payload, Message) and payload.is_query():
            self.socket.send(make_truncated_response(payload), src, sport)

    def _on_connection(self, conn) -> None:
        def on_data(c, data):
            if data:
                c.send(MALFORMED)

        def on_close(c, error):
            self.aborted += error

        conn.on_data = on_data
        conn.on_close = on_close


def build():
    sim = Simulator(seed=3)
    server_node, client = Node(sim, "server"), Node(sim, "client")
    server_node.add_address(SERVER_IP)
    client.add_address(CLIENT_IP)
    link = Link(sim, client, server_node, delay=0.0002)
    client.set_default_route(link)
    server_node.set_default_route(link)
    return sim, MalformedServer(server_node), client


def test_tcp_load_client_counts_a_malformed_reply_as_failed():
    sim, server, client = build()
    load = TcpLoadClient(client, SERVER_IP, concurrency=1)
    load.start()
    sim.run(until=0.05)
    load.stop()
    assert load.stats.completed == 0
    assert load.stats.timeouts == load.stats.sent - 1 > 3  # one still in flight
    assert server.aborted >= load.stats.timeouts


def test_lrs_simulator_tcp_fallback_fails_on_a_malformed_reply():
    sim, server, client = build()
    lrs = LrsSimulator(client, SERVER_IP, timeout=0.5)
    lrs.start()
    sim.run(until=0.05)
    lrs.stop()
    assert lrs.stats.completed == 0
    assert lrs.stats.timeouts >= 3 and server.aborted >= 3


def test_recursive_tcp_fallback_servfails_on_a_malformed_reply():
    sim, server, client = build()
    resolver = LocalRecursiveServer(client, [SERVER_IP])
    results = []
    resolver.resolve("www.foo.com", callback=results.append)
    sim.run(until=1.0)
    assert resolver.tcp_fallbacks == 1 and server.aborted == 1
    assert [result.status for result in results] == ["servfail"]


def test_secondary_transfer_errors_on_a_malformed_reply():
    sim, server, client = build()
    secondary = SecondaryServer(client, SERVER_IP)
    results = []
    secondary.transfer("foo.com", results.append)
    sim.run(until=1.0)
    assert [result.status for result in results] == ["error"]
    assert secondary.transfers_failed == 1 and server.aborted == 1
