"""Property: the ACK path's two derivations against the definitions they replace.

``TcpConnection._process_ack`` drops the acknowledged prefix of its send
window in place.  It replaced a filter that kept, from anywhere in the
window, every segment whose end is after the ACK (mod 2^32); that filter is
written out below as the reference.  The two must leave the same window and
``snd_una`` for windows of data, SYN and FIN segments whose numbers wrap
past 2^32 - 1, and for ACKs that are duplicates, partial, exact (a segment
boundary) or for bytes never sent.  An emptied window also leaves no
retransmission timer, and a non-empty one leaves one armed.

``TcpStack._syn_cookie`` packs the 4-tuple's address integers; it must hash
the bytes the ``IPv4Address.packed`` spelling gives.
"""

import hashlib
import struct
from ipaddress import IPv4Address

from hypothesis import example, given, strategies as st

from repro.netsim import Node, Simulator, TcpState, parse_address
from repro.netsim.tcp import ACK, FIN, SYN, TcpConnection

MASK = 0xFFFFFFFF

LOCAL_IP = parse_address("10.0.0.2")
REMOTE_IP = parse_address("10.0.0.1")


def reference_ack(snd_una: int, snd_nxt: int, window: list, ack: int) -> tuple[int, list]:
    """RFC 793's acceptance test, then a filter over the whole window: the
    ``(snd_una, window)`` the replaced implementation left."""
    if not 0 < (ack - snd_una) & MASK <= (snd_nxt - snd_una) & MASK:
        return snd_una, window

    def seq_gt(a: int, b: int) -> bool:
        return ((a - b) & MASK) < 0x80000000 and a != b

    def span(data: bytes, flags: int) -> int:
        if data:
            return len(data)
        return 1 if flags & (SYN | FIN) else 0

    return ack, [
        (seq, data, flags)
        for seq, data, flags in window
        if seq_gt((seq + span(data, flags)) & MASK, ack)
    ]


#: one segment of the window: a data chunk, or a SYN or FIN (one number each)
segments = st.one_of(
    st.integers(min_value=1, max_value=1460).map(lambda n: (bytes(n), ACK)),
    st.just((b"", SYN)),
    st.just((b"", FIN | ACK)),
)

#: initial sequence numbers, mostly a window's length or less below 2^32
iss_values = st.one_of(
    st.integers(min_value=2**32 - 50_000, max_value=MASK),
    st.integers(min_value=0, max_value=MASK),
)


@st.composite
def windows(draw):
    """``(snd_una, snd_nxt, window, ack)``: a window laid out from the ISS
    the way ``_pump`` lays it out, ``snd_una`` at or inside its first
    segment, and an ACK drawn around it."""
    iss = draw(iss_values)
    window = []
    seq = iss
    for data, flags in draw(st.lists(segments, max_size=32)):
        window.append((seq, data, flags))
        seq = (seq + (len(data) or 1)) & MASK
    snd_nxt = seq
    first_span = (len(window[0][1]) or 1) if window else 0
    snd_una = (iss + draw(st.integers(min_value=0, max_value=max(first_span - 1, 0)))) & MASK
    outstanding = (snd_nxt - snd_una) & MASK
    ends = [(s + (len(d) or 1) - snd_una) & MASK for s, d, _ in window]
    offset = draw(
        st.one_of(
            st.integers(min_value=-3000, max_value=0),  # duplicate or older
            st.integers(min_value=1, max_value=max(outstanding, 1)),  # partial or exact
            st.sampled_from(ends or [0]),  # a segment boundary
            st.integers(min_value=outstanding + 1, max_value=outstanding + 3000),  # never sent
            st.integers(min_value=0, max_value=MASK),
        )
    )
    return snd_una, snd_nxt, window, (snd_una + offset) & MASK


def connection() -> TcpConnection:
    sim = Simulator(seed=0)
    node = Node(sim, "local")
    node.add_address(LOCAL_IP)
    conn = TcpConnection(node.tcp, LOCAL_IP, 53, REMOTE_IP, 4000)
    conn.state = TcpState.ESTABLISHED
    return conn


@given(windows())
@example((MASK - 9, 5, [(MASK - 9, bytes(10), ACK), (0, bytes(5), ACK)], 0))  # wraps to 0
@example((MASK, 1, [(MASK, b"", FIN | ACK), (0, b"x", ACK)], 0))  # the FIN at 2^32 - 1
@example((100, 120, [(100, bytes(20), ACK)], 110))  # inside a segment
@example((100, 120, [(100, bytes(20), ACK)], 121))  # a byte never sent
def test_ack_drops_the_prefix_the_filter_dropped(case):
    snd_una, snd_nxt, window, ack = case
    conn = connection()
    conn.snd_una, conn.snd_nxt = snd_una, snd_nxt
    conn._inflight = list(window)
    conn._arm_retransmit()
    conn._process_ack(ack)
    expected_una, expected_window = reference_ack(snd_una, snd_nxt, window, ack)
    assert conn.snd_una == expected_una
    assert conn._inflight == expected_window
    if expected_una != snd_una:  # an accepted ACK re-arms or stops the timer
        assert (conn._retransmit_handle is None) == (not expected_window)


@given(
    st.binary(min_size=8, max_size=8),
    st.integers(min_value=0, max_value=MASK),
    st.integers(min_value=0, max_value=0xFFFF),
    st.integers(min_value=0, max_value=MASK),
    st.integers(min_value=0, max_value=0xFFFF),
)
def test_syn_cookie_hashes_the_packed_addresses(secret, local, lport, remote, rport):
    stack = Node(Simulator(seed=0), "server").tcp
    stack._cookie_secret = secret
    lip, rip = IPv4Address(local), IPv4Address(remote)
    material = secret + lip.packed + rip.packed + struct.pack("!HH", lport, rport)
    expected = struct.unpack("!I", hashlib.md5(material).digest()[:4])[0]
    assert stack._syn_cookie(local, lport, remote, rport) == expected
