"""Property: the label-cookie verifier decides as the parse-based one did.

``CookieFactory.verify_label`` compares the case-folded label with the
minted one, lower-case hex.  It replaced a verifier that parsed the hex
digits with ``bytes.fromhex`` and compared the 4 bytes; that verifier is
written out below as the reference, and the two must accept and reject
the same labels: random bytes, non-hex digits (``+f`` parses as a signed
hex number, not as hex digits), ASCII whitespace (``fromhex`` skips it), a
DNS-0x20 resolver's case flips of a valid label, and labels minted under
the current key, the previous one and one two generations old.

The reference raised ``IndexError`` on a label whose digits are all
whitespace (``fromhex`` returns no bytes, then the parity was read from the
first one); that label is a reject, and the guard now drops it.
"""

from hypothesis import given, strategies as st

from repro.dnswire import Name, make_query
from repro.guard import CookieFactory, RemoteDnsGuard
from repro.guard.core.cookie import KEY_LENGTH, LABEL_PREFIX
from repro.netsim import Node, Packet, Simulator, UdpDatagram, Verdict, parse_address

keys = st.binary(min_size=KEY_LENGTH, max_size=KEY_LENGTH)
sources = st.integers(min_value=0, max_value=2**32 - 1)

#: bytes a presented label may hold in place of a hex digit
ODD_BYTES = b"+-xXgGzZ \t\n\r\x0b\x0c.\x00\xff"


def parse_based_verify(factory: CookieFactory, label_cookie: bytes, source_ip: int) -> bool:
    """The verifier ``verify_label`` replaced, verbatim but for the
    all-whitespace label, on which it raised."""
    if len(label_cookie) != len(LABEL_PREFIX) + factory.label_hex_digits:
        return False
    if label_cookie[: len(LABEL_PREFIX)].upper() != LABEL_PREFIX:
        return False
    try:
        presented = bytes.fromhex(label_cookie[len(LABEL_PREFIX) :].decode("ascii"))
    except (ValueError, UnicodeDecodeError):
        return False
    if not presented:
        return False  # raised IndexError here
    indicated_parity = presented[0] >> 7
    if indicated_parity == (factory.generation & 1):
        key, generation = factory._current_key, factory.generation
    elif factory._previous_key is not None:
        key, generation = factory._previous_key, factory.generation - 1
    else:
        return False
    expected = factory._stamp_generation(factory._raw(source_ip, key), generation)
    return presented == expected[: factory.label_hex_digits // 2]


@st.composite
def presented_labels(draw, minted: list[bytes], width: int):
    """A label a requester might present: one minted, case-flipped,
    spoiled at one position, or arbitrary bytes."""
    kind = draw(st.sampled_from(["minted", "flipped", "spoiled", "hex", "random"]))
    if kind == "random":
        return draw(st.binary(min_size=width - 1, max_size=width + 1))
    if kind == "hex":
        digits = st.sampled_from(b"0123456789abcdefABCDEF +")
        return b"PR" + bytes(draw(st.lists(digits, min_size=width - 2, max_size=width - 2)))
    label = draw(st.sampled_from(minted))
    if kind == "minted":
        return label
    flips = draw(st.lists(st.booleans(), min_size=width, max_size=width))
    label = bytes(
        ord(chr(byte).swapcase()) if flip else byte for byte, flip in zip(label, flips)
    )
    if kind == "spoiled":
        at = draw(st.integers(0, width - 1))
        label = label[:at] + bytes((draw(st.sampled_from(ODD_BYTES)),)) + label[at + 1 :]
    return label


@given(
    data=st.data(),
    generations=st.lists(keys, min_size=3, max_size=3),
    hex_digits=st.sampled_from([2, 8, 16]),
    source=sources,
    other=sources,
)
def test_verify_label_is_the_parse_based_verifier(data, generations, hex_digits, source, other):
    factory = CookieFactory(generations[0], label_hex_digits=hex_digits)
    width = factory.label_cookie_length
    minted = [factory.label_cookie(source)]
    for step, next_key in enumerate([None, *generations[1:]]):
        if next_key is not None:  # the oldest label is two generations old at the end
            factory.rotate(next_key)
            minted.append(factory.label_cookie(source))
        for _ in range(4):
            label = data.draw(presented_labels(minted, width))
            requester = data.draw(st.sampled_from([source, other]))
            assert factory.verify_label(label, requester) == parse_based_verify(
                factory, label, requester
            ), (step, label)


def test_a_label_that_is_not_hex_costs_no_md5():
    factory = CookieFactory(bytes(range(KEY_LENGTH)))
    for label in (b"PRzzzzzzzz", b"PR+f+f+f+f", b"PRab cd ef", b"PR        "):
        before = factory.computations
        assert not factory.verify_label(label, 1)
        assert factory.computations == before


def test_the_guard_drops_an_all_whitespace_cookie_label():
    """``PR`` + 8 spaces under the origin is a cookie name whose digits
    ``bytes.fromhex`` reads as no bytes at all: an invalid cookie, dropped."""
    sim = Simulator(seed=1)
    node = Node(sim, "guard")
    ans = parse_address("203.0.113.53")
    guard = RemoteDnsGuard(node, ans, cookie_factory=CookieFactory(bytes(KEY_LENGTH)))
    query = make_query(Name((b"PR" + b" " * 8,)))
    packet = Packet(
        src=parse_address("192.0.2.7"), dst=ans, segment=UdpDatagram(5353, 53, query)
    )
    assert guard._transit(packet) is Verdict.DROP
    assert guard.invalid_drops == 1
