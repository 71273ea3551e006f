"""Property: a frozen message's remembered cookie is the one its wire carries.

``extract_cookie`` keeps what its first scan of a frozen message found, and
the derivations hand that answer on (``with_header``, ``with_cookie``,
``without_cookie``, the decode memo's later sightings).  Whatever path a
message took, ``extract_cookie`` must equal a scan of the full parse of its
encoding.  The additionals mix cookie records with look-alikes: root TXT
records of other lengths, a 16-byte TXT under a non-root owner, a cookie
split over two strings, two cookies in one message.
"""

import struct

from hypothesis import given, settings, strategies as st

from repro.dnswire import (
    OPT,
    TXT,
    Header,
    Message,
    Name,
    ResourceRecord,
    RRClass,
    RRType,
    a_record,
    extract_cookie,
    with_cookie,
    without_cookie,
)
from repro.dnswire.message import _decoded
from tests.property.test_wire_roundtrip import messages

cookies16 = st.binary(min_size=16, max_size=16)


def txt(owner: str, *strings: bytes) -> ResourceRecord:
    return ResourceRecord(Name.from_text(owner), RRType.TXT, RRClass.IN, 0, TXT(strings))


@st.composite
def additionals(draw):
    cookie = draw(cookies16)
    pool = st.sampled_from(
        [
            txt(".", cookie),  # the cookie record
            txt(".", cookie[:7], cookie[7:]),  # the cookie over two strings
            txt(".", cookie[:15]),  # look-alikes: root TXT of other lengths
            txt(".", cookie + b"!"),
            txt(".", b""),
            txt("foo.com.", cookie),  # 16 bytes, but not root-owned
            ResourceRecord(Name.root(), RRType.OPT, 4096, 0, OPT()),
            a_record("ns1.foo.com", "198.51.100.53"),
        ]
    )
    # two cookie records in one message come up too: draws repeat
    return draw(st.lists(pool, max_size=3))


def scan(message: Message) -> bytes | None:
    """The reference: the first root-owned TXT with 16 bytes of payload."""
    for rr in message.additionals:
        if (
            rr.rtype == RRType.TXT
            and rr.name.is_root()
            and isinstance(rr.rdata, TXT)
            and len(rr.rdata.payload) == 16
        ):
            return rr.rdata.payload
    return None


def check(message: Message) -> Message:
    """Twice, so the second call reads what the first remembered."""
    for _ in range(2):
        assert extract_cookie(message) == scan(Message._parse(message.encode()))
    return message


@settings(deadline=None)
@given(
    message=messages(),
    extra=additionals(),
    header=st.builds(Header, msg_id=st.integers(0, 0xFFFF), rd=st.booleans()),
    cookie=cookies16,
    ids=st.lists(st.integers(0, 0xFFFF), min_size=3, max_size=3),
)
def test_extract_cookie_is_a_scan_of_the_parsed_wire(message, extra, header, cookie, ids):
    message.additionals = extra
    check(message)
    frozen = check(message.freeze())
    reheaded = check(frozen.with_header(header))
    for source in (frozen, reheaded):
        stamped = check(with_cookie(source, cookie))
        check(without_cookie(stamped))
        check(with_cookie(check(without_cookie(source)), cookie))
    _decoded.clear()
    wire = frozen.encode()
    # a shape's first, second (kept as the prototype) and third sightings
    for msg_id in ids:
        check(Message.decode(struct.pack("!H", msg_id) + wire[2:]))
    _decoded.clear()
