"""A UDP datagram carries its message: what a send builds, as seen on the wire.

A datagram's payload is the ``Message`` or ``bytes`` a socket sent, and the
packet's ``_size`` is its one size memo (``size=`` sets it at the send, else
the first link measures it).  Over frozen and unfrozen messages, queries and
responses, raw bytes and bytearrays, with and without a ``size=`` override,
each property below holds what the packet reports — its size, its
determinism digest, its ``PacketTracer`` line, what the bound handler gets —
to formulas written out here from the message's real encoding.  The per-
packet ``Header`` calls are positional; a second property holds
``response_header`` to the keyword form for every flag.
"""

from hypothesis import given, settings, strategies as st

from repro.dnswire import Header, Name, Opcode, Question, Rcode, RRClass, RRType, make_query
from repro.dnswire import make_response, response_header
from repro.netsim import Link, Node, PacketTracer, Simulator, format_address

CLIENT, SERVER = "10.0.0.1", "10.0.0.2"
NAMES = ("www.foo.com", "foo.com", "a.b.c.example", "x")


@st.composite
def messages(draw):
    """A query or its response, with one or two questions, maybe frozen."""
    query = make_query(
        draw(st.sampled_from(NAMES)),
        draw(st.sampled_from([RRType.A, RRType.TXT, RRType.NS])),
        msg_id=draw(st.integers(0, 0xFFFF)),
    )
    if draw(st.booleans()):
        query.questions.append(Question(Name.from_text("mail.foo.com"), RRType.A, RRClass.IN))
    message = make_response(query) if draw(st.booleans()) else query
    return message.freeze() if draw(st.booleans()) else message


payloads = st.one_of(
    messages(),
    st.binary(max_size=64),
    st.binary(max_size=64).map(bytearray),
)


def one_send(payload, size):
    """Send ``payload`` from CLIENT to SERVER:53 across one link; return the
    packet the link carried, the tracer's record and what the handler got."""
    sim = Simulator()
    client, server = Node(sim, "client"), Node(sim, "server")
    client.add_address(CLIENT)
    server.add_address(SERVER)
    Link(sim, client, server, delay=0.001)
    carried, received = [], []
    tracer = PacketTracer(client, filter_fn=lambda packet: carried.append(packet) or True)
    server.udp.bind(53, lambda data, src, sport, dst: received.append((data, src, sport, dst)))
    sock = client.udp.bind(5353, lambda *args: None)
    assert sock.send(payload, SERVER, 53, size=size)
    sim.run()
    (packet,) = carried
    (record,) = tracer.records
    return packet, record, received


@settings(max_examples=150, deadline=None)
@given(payload=payloads, size=st.none() | st.integers(0, 1400))
def test_a_sent_datagram_reads_as_its_payload_and_size(payload, size):
    packet, record, received = one_send(payload, size)
    raw = isinstance(payload, (bytes, bytearray))
    # the body size: the override if one was given, else the real encoding
    body = len(payload) if raw else len(payload._encode_once(True))
    if size is not None:
        body = size
    assert packet.size == packet._size == 20 + 8 + body

    if raw:
        detail = f"raw:{body}"
        info = "UDP data"
    else:
        detail = f"dns:{payload.header.msg_id}:{body}"
        kind = "query" if payload.is_query() else "response"
        info = f"DNS {kind} {payload.questions[0].qname}"
    assert packet.trace_digest() == f"pkt[{CLIENT}>{SERVER}:ttl64:udp:5353>53:{detail}]"
    assert str(record) == (
        f"{record.time * 1000:9.3f}ms {CLIENT}:5353 > {SERVER}:53 udp {20 + 8 + body}B {info}"
    )
    assert format_address(record.src) == CLIENT and record.size == packet.size

    # the handler gets the object the socket sent: the message itself, or
    # the bytes (a bytearray turned into bytes at the socket)
    ((data, src, sport, dst),) = received
    assert (format_address(src), sport, format_address(dst)) == (CLIENT, 5353, SERVER)
    assert data is packet.segment.payload
    if raw:
        assert type(data) is bytes and data == bytes(payload)
        assert data is payload or type(payload) is bytearray
    else:
        assert data is payload


flags = st.booleans()


@settings(max_examples=200, deadline=None)
@given(
    msg_id=st.integers(0, 0xFFFF),
    opcode=st.sampled_from(list(Opcode)),
    query_bits=st.tuples(flags, flags, flags, flags, flags),
    rcode=st.sampled_from(list(Rcode)),
    authoritative=flags,
    recursion_available=flags,
)
def test_the_positional_headers_are_the_keyword_ones(
    msg_id, opcode, query_bits, rcode, authoritative, recursion_available
):
    qr, aa, tc, rd, ra = query_bits
    query = make_query("www.foo.com", msg_id=msg_id)
    query.header = Header(msg_id=msg_id, qr=qr, opcode=opcode, aa=aa, tc=tc, rd=rd, ra=ra)
    header = response_header(
        query, rcode=rcode, authoritative=authoritative, recursion_available=recursion_available
    )
    assert header == Header(
        msg_id=msg_id,
        qr=True,
        opcode=opcode,
        aa=authoritative,
        tc=False,
        rd=rd,
        ra=recursion_available,
        rcode=rcode,
    )
    # the re-heads' short forms
    assert Header(msg_id) == Header(msg_id=msg_id)
    assert Header(msg_id, True) == Header(msg_id=msg_id, qr=True)
