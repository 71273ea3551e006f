"""Domain names: parsing, wire encoding and compression (RFC 1035 §3.1, §4.1.4).

A :class:`Name` is an immutable tuple of labels stored as ``bytes``.  Label
comparison is case-insensitive, as required by RFC 1035 §2.3.3, but the
original case is preserved for presentation.  Compression pointers are
supported on both encode and decode; decoding enforces the usual
pointer-must-go-backwards rule so that malicious messages cannot loop the
parser.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import DecodeError, NameError_
from .types import MAX_LABEL_LENGTH, MAX_NAME_LENGTH

_POINTER_MASK = 0xC0

#: The compression table threaded through every ``encode``: lower-cased
#: label suffix (what :meth:`Name.__eq__` compares) -> offset of its first
#: occurrence in the message buffer.
Offsets = dict[tuple[bytes, ...], int]

#: Bounded intern table for :meth:`Name.from_text`.  Workloads parse the
#: same handful of presentation-format names once per event; interning
#: makes the repeat parse a dict hit.  The cap bounds memory against
#: adversarial inputs (e.g. a label sprayer feeding fresh names forever).
_INTERN_LIMIT = 4096
_interned: dict[str, "Name"] = {}  # repro: allow[L003] - bounded content-addressed memo, replay-invisible


class Name:
    """An immutable, case-preserving DNS domain name."""

    __slots__ = ("labels", "_key")

    def __init__(self, labels: Iterable[bytes | str] = ()):
        normalized: list[bytes] = []
        wire_len = 1  # the root byte, then per label a length byte and the label
        for label in labels:
            if isinstance(label, str):
                label = label.encode("ascii")
            size = len(label)
            if not size:
                raise NameError_("empty label inside a name")
            if size > MAX_LABEL_LENGTH:
                raise NameError_(
                    f"label {label[:16]!r}... is {size} bytes; max is {MAX_LABEL_LENGTH}"
                )
            normalized.append(bytes(label))
            wire_len += size + 1
        if wire_len > MAX_NAME_LENGTH:
            raise NameError_(f"name is {wire_len} bytes on the wire; max is {MAX_NAME_LENGTH}")
        self.labels: tuple[bytes, ...] = tuple(normalized)
        self._key = tuple(map(bytes.lower, normalized))

    @classmethod
    def _derived(cls, labels: tuple[bytes, ...]) -> "Name":
        """A name from ``labels`` the caller has proven valid (non-empty bytes,
        at most 63 each and 255 on the wire): nothing is re-checked."""
        name = object.__new__(cls)
        name.labels = labels
        name._key = tuple(map(bytes.lower, labels))
        return name

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Name":
        """Parse a presentation-format name such as ``"www.foo.com."``.

        Results are interned (case-preserving, keyed by the exact text) so
        hot paths parsing the same names repeatedly share one immutable
        :class:`Name` instead of re-tokenising.
        """
        cached = _interned.get(text)
        if cached is not None:
            return cached
        stripped = text.strip()
        if stripped in ("", "."):
            name = cls(())
        else:
            if stripped.endswith("."):
                stripped = stripped[:-1]
            name = cls(part.encode("ascii") for part in stripped.split("."))
        if cls is Name:  # never intern subclasses under the base table
            if len(_interned) >= _INTERN_LIMIT:
                _interned.clear()
            _interned[text] = name
        return name

    @classmethod
    def root(cls) -> "Name":
        """The root name ``.``."""
        return cls(())

    # -- structure ---------------------------------------------------------

    def is_root(self) -> bool:
        return not self.labels

    def parent(self) -> "Name":
        """The name with the leftmost label removed; root's parent is root."""
        if self.is_root():
            return self
        return Name._derived(self.labels[1:])

    def child(self, label: bytes | str) -> "Name":
        """Prepend ``label``, producing a subdomain of this name."""
        return Name((label, *self.labels))

    def is_subdomain_of(self, other: "Name") -> bool:
        """True if ``self`` equals ``other`` or lies beneath it."""
        key = other._key
        if not key:
            return True
        return self._key[-len(key):] == key

    def relativize(self, origin: "Name") -> tuple[bytes, ...]:
        """Labels of ``self`` below ``origin``; raises if not a subdomain."""
        if not self.is_subdomain_of(origin):
            raise NameError_(f"{self} is not under {origin}")
        n = len(origin._key)
        return self.labels[: len(self.labels) - n]

    def wire_length(self) -> int:
        """Uncompressed length of this name on the wire."""
        return sum(len(l) + 1 for l in self.labels) + 1

    # -- wire codec --------------------------------------------------------

    def encode(self, buffer: bytearray, offsets: Offsets | None = None) -> None:
        """Append this name to ``buffer``, optionally using compression.

        ``offsets`` maps previously written name suffixes to their buffer
        offsets; when provided, suffixes already present are emitted as
        compression pointers and new suffixes are recorded.
        """
        labels = self.labels
        if offsets is None:
            for label in labels:
                buffer.append(len(label))
                buffer += label
            buffer.append(0)
            return
        key = self._key
        for i, label in enumerate(labels):
            suffix = key[i:]
            target = offsets.get(suffix)
            if target is not None and target < 0x4000:
                buffer.append(_POINTER_MASK | (target >> 8))
                buffer.append(target & 0xFF)
                return
            if len(buffer) < 0x4000:
                offsets[suffix] = len(buffer)
            buffer.append(len(label))
            buffer += label
        buffer.append(0)

    @classmethod
    def decode(cls, data: bytes, offset: int) -> tuple["Name", int]:
        """Parse a (possibly compressed) name at ``offset``.

        Returns the name and the offset of the first byte after it in the
        *uncompressed* stream (i.e. after the pointer, if one was followed).
        """
        labels: list[bytes] = []
        end: int | None = None
        seen_offsets: set[int] = set()
        pos = offset
        total = 0
        while True:
            if pos >= len(data):
                raise DecodeError("name runs past end of message")
            length = data[pos]
            if length & _POINTER_MASK == _POINTER_MASK:
                if pos + 1 >= len(data):
                    raise DecodeError("truncated compression pointer")
                target = ((length & 0x3F) << 8) | data[pos + 1]
                if end is None:
                    end = pos + 2
                if target >= pos or target in seen_offsets:
                    raise DecodeError("compression pointer does not go strictly backwards")
                seen_offsets.add(target)
                pos = target
                continue
            if length & _POINTER_MASK:
                raise DecodeError(f"reserved label type 0x{length & _POINTER_MASK:02x}")
            pos += 1
            if length == 0:
                if end is None:
                    end = pos
                break
            if pos + length > len(data):
                raise DecodeError("label runs past end of message")
            total += length + 1
            if total + 1 > MAX_NAME_LENGTH:
                raise DecodeError("decoded name exceeds 255 bytes")
            labels.append(data[pos : pos + length])
            pos += length
        return cls(labels), end

    def to_wire(self) -> bytes:
        """Uncompressed wire form of this name."""
        buf = bytearray()
        self.encode(buf, offsets=None)
        return bytes(buf)

    # -- dunder ------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_root():
            return "."
        return ".".join(l.decode("ascii", "backslashreplace") for l in self.labels) + "."

    def __repr__(self) -> str:
        return f"Name({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[bytes]:
        return iter(self.labels)

    def __lt__(self, other: "Name") -> bool:
        # Canonical ordering: compare label sequences right-to-left, the way
        # DNSSEC canonical ordering does, so siblings group under parents.
        return tuple(reversed(self._key)) < tuple(reversed(other._key))


ROOT = Name.root()
