"""Unit tests for the modified-DNS cookie extension (Fig 3b)."""

import pathlib
import re

import pytest

import repro
from repro.dnswire import (
    COOKIE_LENGTH,
    PROTOTYPE_CAP,
    Header,
    Message,
    Name,
    RRType,
    TXT,
    UNSCANNED,
    ZERO_COOKIE,
    attach_cookie,
    cookie_rr,
    extract_cookie,
    is_cookie_request,
    make_query,
    strip_cookie,
    with_cookie,
    without_cookie,
)
from repro.dnswire import cookie_ext
from repro.dnswire.message import ResourceRecord
from repro.dnswire.types import RRClass


COOKIE = bytes(range(16))


class TestCookieExtension:
    def test_attach_and_extract(self):
        query = make_query("www.foo.com")
        attach_cookie(query, COOKIE)
        assert extract_cookie(query) == COOKIE

    def test_survives_wire_round_trip(self):
        query = attach_cookie(make_query("www.foo.com", msg_id=3), COOKIE)
        decoded = Message.decode(query.encode())
        assert extract_cookie(decoded) == COOKIE

    def test_attach_replaces_existing(self):
        query = attach_cookie(make_query("a.com"), COOKIE)
        attach_cookie(query, b"\xff" * 16)
        assert extract_cookie(query) == b"\xff" * 16
        assert len(query.additionals) == 1

    def test_strip_removes_cookie(self):
        query = attach_cookie(make_query("a.com"), COOKIE)
        strip_cookie(query)
        assert extract_cookie(query) is None
        assert query.additionals == []

    def test_strip_preserves_other_additionals(self):
        query = make_query("a.com")
        other = ResourceRecord(
            Name.from_text("note.a.com"), RRType.TXT, RRClass.IN, 60, TXT.single(b"hello")
        )
        query.additionals.append(other)
        attach_cookie(query, COOKIE)
        strip_cookie(query)
        assert query.additionals == [other]

    def test_plain_query_is_not_cookie_capable(self):
        assert extract_cookie(make_query("a.com")) is None

    def test_zero_cookie_is_request(self):
        query = attach_cookie(make_query("a.com"), ZERO_COOKIE)
        assert is_cookie_request(query)

    def test_real_cookie_is_not_request(self):
        query = attach_cookie(make_query("a.com"), COOKIE)
        assert not is_cookie_request(query)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            cookie_rr(b"short")

    def test_cookie_rr_shape_matches_figure_3b(self):
        rr = cookie_rr(COOKIE)
        assert rr.name.is_root()
        assert rr.rtype == RRType.TXT
        assert rr.ttl == 0
        assert rr.rdata.payload == COOKIE

    def test_request_and_grant_same_size(self):
        """Message 2 and message 3 of Fig 3a must match in size (no amplification)."""
        request = attach_cookie(make_query("www.foo.com", msg_id=1), ZERO_COOKIE)
        grant = attach_cookie(make_query("www.foo.com", msg_id=1), COOKIE)
        grant.header.qr = True
        assert abs(request.wire_size() - grant.wire_size()) == 0

    def test_unrelated_long_txt_not_mistaken_for_cookie(self):
        query = make_query("a.com")
        query.additionals.append(
            ResourceRecord(Name.root(), RRType.TXT, RRClass.IN, 0, TXT.single(b"x" * 20))
        )
        assert extract_cookie(query) is None

    def test_cookie_length_constant(self):
        assert COOKIE_LENGTH == 16
        assert len(ZERO_COOKIE) == 16


class TestShapePrototypes:
    """A memo hit of ``with_cookie``/``without_cookie`` (the shape's prototype
    re-headed) is the message the miss path derives for the same query."""

    @pytest.fixture(autouse=True)
    def empty_tables(self, monkeypatch):
        monkeypatch.setattr(cookie_ext, "_stamped", {})
        monkeypatch.setattr(cookie_ext, "_stripped", {})

    @staticmethod
    def same(hit: Message, miss: Message) -> None:
        assert hit == miss  # header and every section's records
        assert hit.encode() == miss.encode() == hit._encode_once(True)
        assert (hit._wire is None) == (miss._wire is None)
        assert extract_cookie(hit) == extract_cookie(miss)

    @staticmethod
    def owns_its_lists(derived: Message, prototype: Message) -> None:
        for section in ("questions", "answers", "authorities", "additionals"):
            assert getattr(derived, section) is not getattr(prototype, section)

    def derive_twice(self, derive, message: Message, table: dict):
        """``derive`` of a re-headed ``message`` as a memo hit and as a miss."""
        derive(message)  # the first of the shape becomes its prototype
        assert len(table) == 1
        (prototype,) = table.values()
        other = message.with_header(Header(msg_id=message.header.msg_id + 1, rd=False))
        hit = derive(other)
        assert len(table) == 1
        table.clear()
        miss = derive(other)
        self.same(hit, miss)
        self.owns_its_lists(hit, prototype)
        assert hit.header is other.header
        return hit

    @pytest.mark.parametrize(
        "additionals",
        [
            [],
            # a root TXT that is not a cookie, and a cookie-length one not root-owned
            [
                ResourceRecord(Name.root(), RRType.TXT, RRClass.IN, 0, TXT.single(b"x" * 15)),
                ResourceRecord(Name.from_text("foo.com"), RRType.TXT, RRClass.IN, 0, TXT.single(COOKIE)),
            ],
        ],
        ids=["plain", "non-cookie-txt"],
    )
    def test_a_hit_is_the_miss(self, additionals):
        query = make_query("www.foo.com")
        query.additionals += additionals
        query.freeze()
        stamped = self.derive_twice(
            lambda m: with_cookie(m, COOKIE), query, cookie_ext._stamped
        )
        assert extract_cookie(stamped) == COOKIE
        stripped = self.derive_twice(without_cookie, stamped, cookie_ext._stripped)
        assert stripped.additionals == query.additionals
        assert extract_cookie(stripped) is None

    def test_an_already_cookied_message_falls_back_and_keeps_no_prototype(self):
        cookied = attach_cookie(make_query("www.foo.com"), ZERO_COOKIE).freeze()
        restamped = with_cookie(cookied, COOKIE)
        assert cookie_ext._stamped == {}
        assert restamped._wire is None
        self.same(restamped, attach_cookie(cookied.copy(), COOKIE))
        assert extract_cookie(restamped) == COOKIE

    def test_the_section_counts_are_part_of_the_shape(self):
        """One record's bytes as an answer or as an additional: the sections
        read the same past the header, but they are two messages."""
        record = ResourceRecord(Name.from_text("foo.com"), RRType.TXT, RRClass.IN, 0, TXT.single(b"a"))
        as_answer = make_query("www.foo.com")
        as_answer.answers.append(record)
        as_additional = make_query("www.foo.com")
        as_additional.additionals.append(record)
        as_answer.freeze(), as_additional.freeze()
        assert as_answer.sections_wire == as_additional.sections_wire
        with_cookie(as_answer, COOKIE)
        stamped = with_cookie(as_additional, COOKIE)
        assert len(cookie_ext._stamped) == 2
        cookie_ext._stamped.clear()
        self.same(stamped, with_cookie(as_additional, COOKIE))
        assert stamped.additionals == [record, cookie_rr(COOKIE)]

    def test_a_full_table_is_flushed_and_the_shape_kept_again(self):
        query = make_query("www.foo.com").freeze()
        stamped = with_cookie(query, COOKIE)
        for table, derive, source in (
            (cookie_ext._stamped, lambda m: with_cookie(m, COOKIE), query),
            (cookie_ext._stripped, without_cookie, stamped),
        ):
            table.clear()
            table.update({(i, "filler"): None for i in range(PROTOTYPE_CAP)})
            kept = derive(source)
            assert list(table.values()) == [kept]
            self.derive_twice(derive, source, table)


class TestInlineMemoReaders:
    """The guards read ``extract_cookie``'s memo without entering it, in the
    form the ``cookie_ext`` docstring gives.  These tests hold the slot, the
    sentinel and every reader together: a change to how the memo is stored
    fails here until each reader is brought along."""

    #: every module outside ``dnswire`` that reads the memo, and how often
    READERS = {"guard/pipeline.py": 1, "guard/local_guard.py": 2}
    INLINE_READ = re.compile(
        r"(\w+) = (\w+)\._cookie\b.*\n"
        r"\s+if \1 is UNSCANNED:\n"
        r"\s+\1 = extract_cookie\(\2\)\n"
    )

    @staticmethod
    def inline(message: Message):
        cookie = message._cookie
        if cookie is UNSCANNED:
            cookie = extract_cookie(message)
        return cookie

    def test_the_memo_is_the_slot_and_sentinel_the_readers_read(self):
        assert "_cookie" in Message.__slots__
        assert Message.__dataclass_fields__["_cookie"].default is UNSCANNED
        plain, cookied = make_query("www.foo.com"), attach_cookie(make_query("www.foo.com"), COOKIE)
        for message, cookie in ((plain, None), (cookied, COOKIE)):
            extract_cookie(message)
            assert message._cookie is UNSCANNED  # an unfrozen message is never memoised
            message.freeze()
            assert message._cookie is UNSCANNED
            assert extract_cookie(message) == cookie
            assert message._cookie == cookie

    def test_the_inline_read_is_extract_cookie(self):
        query = make_query("www.foo.com")
        frozen = make_query("www.foo.com").freeze()
        stamped = with_cookie(frozen, COOKIE)
        messages = [
            query,
            attach_cookie(query.copy(), COOKIE),
            frozen,
            stamped,
            without_cookie(stamped),
            stamped.with_header(Header(msg_id=7)),
            attach_cookie(make_query("www.foo.com"), ZERO_COOKIE).freeze(),
        ]
        for message in messages:
            expected = extract_cookie(message.copy())
            assert self.inline(message) == expected  # unscanned or scanned
            assert self.inline(message) == expected  # and again, memo or not

    def test_every_inline_reader_has_the_documented_form(self):
        src = pathlib.Path(repro.__file__).parent
        readers = {}
        for path in sorted(src.rglob("*.py")):
            if path.parent.name == "dnswire":
                continue
            text = path.read_text()
            reads = len(re.findall(r"\._cookie\b", text))
            if reads:
                name = path.relative_to(src).as_posix()
                readers[name] = reads
                assert len(self.INLINE_READ.findall(text)) == reads, name
        assert readers == self.READERS
