"""Property: ``CookieFactory.verify`` decides as the stamp-and-compare verifier did.

``verify`` lets the cookie's first bit pick the key of that generation
parity, computes the one MD5 and compares the digest with the cookie past
that bit.  It replaced a verifier that stamped the digest with the
generation bit and compared the whole cookie; that verifier is written out
below as the reference, and the two must accept and reject the same
cookies: ones minted under the current key, the previous one and one two
generations old, each also with its parity bit or another bit flipped,
random 16-byte cookies and cookies of other lengths, presented by the
source they were minted for or another, as an integer or an
``IPv4Address`` (what ``bench/micro.py`` hands in), by a factory as built
and by one restored through ``export_state``/``import_state``.  Each check
still costs the one MD5 it did: ``computations`` counts as before.
"""

import hashlib
from ipaddress import IPv4Address

from hypothesis import given, strategies as st

from repro.guard import CookieFactory
from repro.guard.core.cookie import KEY_LENGTH

keys = st.binary(min_size=KEY_LENGTH, max_size=KEY_LENGTH)
sources = st.integers(min_value=0, max_value=2**32 - 1)


def digest(source, key: bytes) -> bytes:
    return hashlib.md5(int(source).to_bytes(4, "big") + key).digest()


def stamp_and_compare(factory: CookieFactory, cookie: bytes, source) -> bool:
    """The reference: ``cookie == _stamp_generation(_raw(src, key), gen)`` for
    a generation the factory honours, the current one or the previous one."""
    if len(cookie) != 16:
        return False
    honoured = [(factory._current_key, factory.generation)]
    if factory._previous_key is not None:
        honoured.append((factory._previous_key, factory.generation - 1))
    return any(
        cookie == factory._stamp_generation(digest(source, key), generation)
        for key, generation in honoured
    )


def md5s_per_check(factory: CookieFactory, cookie: bytes) -> int:
    """What one check costs: an MD5 unless the cookie's length is wrong, or
    its parity bit names a previous generation the factory does not hold."""
    if len(cookie) != 16:
        return 0
    if cookie[0] >> 7 == factory.generation & 1 or factory._previous_key is not None:
        return 1
    return 0


@st.composite
def presented_cookies(draw, minted: list[bytes]):
    """A cookie a requester might present: one minted, the same with its
    parity bit or another bit flipped, random bytes, or the wrong length."""
    kind = draw(st.sampled_from(["minted", "parity", "bit", "random", "length"]))
    if kind == "random":
        return draw(st.binary(min_size=16, max_size=16))
    if kind == "length":
        return draw(st.one_of(st.binary(max_size=15), st.binary(min_size=17, max_size=20)))
    cookie = draw(st.sampled_from(minted))
    if kind == "minted":
        return cookie
    # bits counted from the first byte's high bit, the parity bit
    bit = 0 if kind == "parity" else draw(st.integers(1, 127))
    spoiled = bytearray(cookie)
    spoiled[bit // 8] ^= 0x80 >> (bit % 8)
    return bytes(spoiled)


@given(
    data=st.data(),
    generations=st.lists(keys, min_size=3, max_size=3),
    first_generation=st.integers(0, 5),
    source=sources,
    other=sources,
)
def test_verify_is_the_stamp_and_compare_verifier(
    data, generations, first_generation, source, other
):
    factory = CookieFactory(generations[0], generation=first_generation)
    minted = [factory.cookie(source)]
    for step, next_key in enumerate([None, *generations[1:]]):
        if next_key is not None:  # the oldest cookie is two generations old at the end
            factory.rotate(next_key)
            minted.append(factory.cookie(source))
        if data.draw(st.booleans()):
            factory = CookieFactory.import_state(factory.export_state())
        for _ in range(4):
            cookie = data.draw(presented_cookies(minted))
            requester = data.draw(st.sampled_from([source, other, IPv4Address(other)]))
            before, cost = factory.computations, md5s_per_check(factory, cookie)
            assert factory.verify(cookie, requester) == stamp_and_compare(
                factory, cookie, requester
            ), (step, cookie)
            assert factory.computations == before + cost

