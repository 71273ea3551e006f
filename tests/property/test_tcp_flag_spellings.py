"""The two spellings of a segment's flags drive the stack identically.

``repro.netsim.tcp`` tests and emits flag bits as plain ints; tests,
``repro.attack``, ``repro.faults`` and the tracer build and read segments
with ``TcpFlags`` members.  For generated segment scripts — every subset of
the four bits, sequence and acknowledgement numbers on, beside and far from
what the stack expects, with and without data — the same script spelled
both ways must take a listener through the same states and counters and
put the same packets (``trace_digest``) on the wire.
"""

from ipaddress import IPv4Address

from hypothesis import example, given, settings, strategies as st

from repro.netsim import (
    Hook,
    Link,
    Node,
    Packet,
    Simulator,
    TcpFlags,
    TcpSegment,
    TcpState,
    Verdict,
)

SERVER_IP = IPv4Address("10.0.0.2")
PEER_IP = IPv4Address("10.0.0.1")
PEER_PORT = 4000

FIN, SYN, RST, ACK = (
    int(flag) for flag in (TcpFlags.FIN, TcpFlags.SYN, TcpFlags.RST, TcpFlags.ACK)
)

offsets = st.sampled_from((-1, 0, 1, 1000))
steps = st.tuples(
    st.sets(st.sampled_from((FIN, SYN, RST, ACK))).map(sum),
    offsets,  # seq, from what the stack expects next
    offsets,  # ack, from what the stack has sent (or the cookie ISN)
    st.sampled_from((0, 1, 5, 1460)),  # data length
)
#: a handshake and a request, so the generated tail lands on every state
OPENING = [(SYN, 0, 0, 0), (ACK, 1, 1, 0), (ACK, 0, 0, 5)]


def drive(script, *, as_members: bool, syn_cookies: bool):
    """Play ``script`` at a listener from one 4-tuple; what the stack did."""
    sim = Simulator(seed=0)
    server = Node(sim, "server")
    server.add_address(SERVER_IP)
    peer = Node(sim, "peer")
    peer.add_address(PEER_IP)
    Link(sim, peer, server, delay=0.001)
    tcp = server.tcp

    def on_connection(conn):
        def on_data(c, data):
            if not data:
                c.close()
            elif c.state is TcpState.ESTABLISHED:
                c.send(b"ok")

        conn.on_data = on_data

    tcp.listen(53, on_connection, syn_cookies=syn_cookies)
    wire = []

    def tap(packet):
        wire.append(packet.trace_digest())
        return Verdict.ACCEPT

    peer.filters.append(Hook.PREROUTING, target=tap)  # what the server sent
    key = (SERVER_IP._ip, 53, PEER_IP._ip, PEER_PORT)
    cookie = tcp._syn_cookie(SERVER_IP, 53, PEER_IP, PEER_PORT)
    states = []
    for bits, seq_offset, ack_offset, length in script:
        conn = tcp.connections.get(key)
        seq = (conn.rcv_nxt if conn else 5000) + seq_offset
        ack = (conn.snd_nxt if conn else cookie) + ack_offset
        segment = TcpSegment(
            sport=PEER_PORT, dport=53, seq=seq & 0xFFFFFFFF, ack=ack & 0xFFFFFFFF,
            flags=TcpFlags(bits) if as_members else bits, data=b"d" * length,
        )
        assert type(segment.flags) is (TcpFlags if as_members else int)
        peer.send(Packet(src=PEER_IP, dst=SERVER_IP, segment=segment))
        sim.run(until=sim.now + 0.01)
        conn = tcp.connections.get(key)
        states.append(
            (conn.state, conn.snd_una, conn.snd_nxt, conn.rcv_nxt, len(conn._inflight))
            if conn
            else None
        )
    sim.run(until=sim.now + 3.0)  # retransmissions and the linger play out
    counters = (
        tcp.cookie_failures, tcp.stale_segments, tcp.segments_received,
        tcp.retry_exhaustions, tcp.open_connections, len(tcp._time_wait),
    )
    return states, counters, wire


@settings(max_examples=150, deadline=None)
@given(
    tail=st.lists(steps, max_size=8),
    opening=st.integers(min_value=0, max_value=len(OPENING)),
    syn_cookies=st.booleans(),
)
@example(tail=[(SYN | FIN, 0, 0, 0)], opening=0, syn_cookies=True)
@example(tail=[(RST | ACK, 0, 0, 0)], opening=2, syn_cookies=True)
@example(tail=[(FIN, 0, 0, 0)], opening=3, syn_cookies=False)
def test_members_and_ints_drive_identical_stacks(tail, opening, syn_cookies):
    script = OPENING[:opening] + tail
    as_members = drive(script, as_members=True, syn_cookies=syn_cookies)
    as_ints = drive(script, as_members=False, syn_cookies=syn_cookies)
    assert as_members == as_ints
    assert len(as_ints[0]) == len(script)


def test_the_opening_establishes_and_is_answered():
    """The differential is not vacuous: the scripted opening completes a
    handshake either way, the request is answered and the FIN is taken."""
    for syn_cookies in (False, True):
        states, counters, wire = drive(
            OPENING + [(FIN | ACK, 0, 0, 0)], as_members=True, syn_cookies=syn_cookies
        )
        assert [state and state[0] for state in states] == [
            None if syn_cookies else TcpState.SYN_RCVD,
            TcpState.ESTABLISHED,
            TcpState.ESTABLISHED,
            TcpState.LAST_ACK,
        ]
        assert counters[0] == 0  # no cookie failure
        assert any(digest.endswith(":2]") for digest in wire)  # the two-byte "ok"
