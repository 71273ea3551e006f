"""Unit tests for domain-name parsing, structure and wire codec."""

import pytest

from repro.dnswire import Name, NameError_, DecodeError
from repro.dnswire.name import Offsets


class TestConstruction:
    def test_from_text_simple(self):
        name = Name.from_text("www.foo.com")
        assert name.labels == (b"www", b"foo", b"com")

    def test_from_text_trailing_dot(self):
        assert Name.from_text("www.foo.com.") == Name.from_text("www.foo.com")

    def test_root_from_dot(self):
        assert Name.from_text(".").is_root()
        assert Name.from_text("").is_root()

    def test_str_round_trip(self):
        assert str(Name.from_text("a.b.c")) == "a.b.c."
        assert str(Name.root()) == "."

    def test_rejects_empty_label(self):
        with pytest.raises(NameError_):
            Name([b"a", b"", b"c"])

    def test_rejects_label_over_63_bytes(self):
        with pytest.raises(NameError_):
            Name([b"x" * 64])

    def test_accepts_label_at_63_bytes(self):
        assert len(Name([b"x" * 63]).labels[0]) == 63

    def test_rejects_name_over_255_wire_bytes(self):
        labels = [b"x" * 63] * 4  # 4*64 + 1 = 257 > 255
        with pytest.raises(NameError_):
            Name(labels)

    def test_case_insensitive_equality(self):
        assert Name.from_text("WWW.Foo.COM") == Name.from_text("www.foo.com")
        assert hash(Name.from_text("FOO.com")) == hash(Name.from_text("foo.COM"))

    def test_case_preserved_in_presentation(self):
        assert str(Name.from_text("WwW.foo.com")) == "WwW.foo.com."


class TestStructure:
    def test_parent(self):
        assert Name.from_text("www.foo.com").parent() == Name.from_text("foo.com")

    def test_parent_of_root_is_root(self):
        assert Name.root().parent().is_root()

    def test_child(self):
        assert Name.from_text("foo.com").child(b"www") == Name.from_text("www.foo.com")

    def test_subdomain_reflexive(self):
        n = Name.from_text("foo.com")
        assert n.is_subdomain_of(n)

    def test_subdomain_of_parent(self):
        assert Name.from_text("www.foo.com").is_subdomain_of(Name.from_text("com"))
        assert Name.from_text("www.foo.com").is_subdomain_of(Name.root())

    def test_not_subdomain_of_sibling(self):
        assert not Name.from_text("www.bar.com").is_subdomain_of(Name.from_text("foo.com"))

    def test_not_subdomain_partial_label(self):
        # "oofoo.com" must not match suffix "foo.com" at the byte level
        assert not Name.from_text("oofoo.com").is_subdomain_of(Name.from_text("foo.com"))

    def test_relativize(self):
        rel = Name.from_text("www.foo.com").relativize(Name.from_text("com"))
        assert rel == (b"www", b"foo")

    def test_relativize_rejects_non_subdomain(self):
        with pytest.raises(NameError_):
            Name.from_text("www.bar.org").relativize(Name.from_text("com"))

    def test_wire_length(self):
        # 3www3foo3com0 = 13 bytes
        assert Name.from_text("www.foo.com").wire_length() == 13
        assert Name.root().wire_length() == 1


class TestWireCodec:
    def test_uncompressed_round_trip(self):
        name = Name.from_text("ns1.example.org")
        wire = name.to_wire()
        decoded, end = Name.decode(wire, 0)
        assert decoded == name
        assert end == len(wire)

    def test_root_wire_form(self):
        assert Name.root().to_wire() == b"\x00"

    def test_compression_shares_suffix(self):
        buf = bytearray()
        offsets: Offsets = {}
        Name.from_text("www.foo.com").encode(buf, offsets)
        before = len(buf)
        Name.from_text("mail.foo.com").encode(buf, offsets)
        # second name should be 4mail + 2-byte pointer = 7 bytes
        assert len(buf) - before == 7

    def test_compressed_decode(self):
        buf = bytearray()
        offsets: Offsets = {}
        first = Name.from_text("www.foo.com")
        second = Name.from_text("mail.foo.com")
        first.encode(buf, offsets)
        start_second = len(buf)
        second.encode(buf, offsets)
        got1, end1 = Name.decode(bytes(buf), 0)
        got2, end2 = Name.decode(bytes(buf), start_second)
        assert got1 == first
        assert got2 == second
        assert end2 == len(buf)

    def test_pointer_loop_rejected(self):
        # pointer at offset 0 pointing to itself
        with pytest.raises(DecodeError):
            Name.decode(b"\xc0\x00", 0)

    def test_forward_pointer_rejected(self):
        # pointer to a later offset must be refused
        data = b"\xc0\x04\x00\x00\x03www\x00"
        with pytest.raises(DecodeError):
            Name.decode(data, 0)

    def test_truncated_label_rejected(self):
        with pytest.raises(DecodeError):
            Name.decode(b"\x05ab", 0)

    def test_truncated_pointer_rejected(self):
        with pytest.raises(DecodeError):
            Name.decode(b"\xc0", 0)

    def test_reserved_label_type_rejected(self):
        with pytest.raises(DecodeError):
            Name.decode(b"\x80abc", 0)

    def test_missing_terminator_rejected(self):
        with pytest.raises(DecodeError):
            Name.decode(b"\x03www", 0)

    def test_canonical_ordering_groups_siblings(self):
        names = sorted(
            [
                Name.from_text("b.com"),
                Name.from_text("a.b.com"),
                Name.from_text("a.com"),
            ]
        )
        assert names == [
            Name.from_text("a.com"),
            Name.from_text("b.com"),
            Name.from_text("a.b.com"),
        ]
