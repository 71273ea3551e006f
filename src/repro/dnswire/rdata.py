"""Resource-record data (RDATA) types (RFC 1035 §3.3, §3.4; RFC 3596).

Each RDATA class knows how to encode itself into a message buffer (with name
compression where the RFC permits it) and decode itself from the wire.  The
``OPT`` pseudo-record used by the RFC 7873 DNS-cookie extension carries raw
EDNS options.
"""

from __future__ import annotations

import dataclasses
import struct
from ipaddress import IPv4Address, IPv6Address
from typing import ClassVar

from .errors import DecodeError, EncodeError
from .name import Name, Offsets
from .types import RRType

_RDATA_REGISTRY: dict[int, type["Rdata"]] = {}  # repro: allow[L003] - filled once at import by @register, read-only after


def register(rtype: int):
    """Class decorator that registers an :class:`Rdata` subclass for a TYPE."""

    def wrap(cls: type["Rdata"]) -> type["Rdata"]:
        cls.rtype = rtype
        _RDATA_REGISTRY[int(rtype)] = cls
        return cls

    return wrap


class Rdata:
    """Base class for typed RDATA."""

    __slots__ = ()

    rtype: ClassVar[int]

    def encode(self, buffer: bytearray, offsets: Offsets | None) -> None:
        raise NotImplementedError

    @classmethod
    def decode(cls, data: bytes, offset: int, rdlength: int) -> "Rdata":
        raise NotImplementedError

    @staticmethod
    def class_for(rtype: int) -> type["Rdata"]:
        try:
            return _RDATA_REGISTRY[int(rtype)]
        except KeyError:
            return Opaque


@dataclasses.dataclass(frozen=True, slots=True)
class Opaque(Rdata):
    """Uninterpreted RDATA for record types we do not model."""

    data: bytes

    def encode(self, buffer: bytearray, offsets: Offsets | None) -> None:
        buffer += self.data

    @classmethod
    def decode(cls, data: bytes, offset: int, rdlength: int) -> "Opaque":
        return cls(data[offset : offset + rdlength])


@register(RRType.A)
@dataclasses.dataclass(frozen=True, slots=True)
class A(Rdata):
    """IPv4 address record."""

    address: IPv4Address
    #: ``address`` as the 32-bit int a simulated packet carries, read once
    ip: int = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        address = self.address
        if not isinstance(address, IPv4Address):
            object.__setattr__(self, "address", IPv4Address(address))
        # decode hands in the int, which needs no int() of the object
        object.__setattr__(self, "ip", address if type(address) is int else int(self.address))

    def encode(self, buffer: bytearray, offsets: Offsets | None) -> None:
        buffer += self.address.packed

    @classmethod
    def decode(cls, data: bytes, offset: int, rdlength: int) -> "A":
        if rdlength != 4:
            raise DecodeError(f"A record rdlength {rdlength} != 4")
        return cls(int.from_bytes(data[offset : offset + 4], "big"))


@register(RRType.AAAA)
@dataclasses.dataclass(frozen=True, slots=True)
class AAAA(Rdata):
    """IPv6 address record."""

    address: IPv6Address

    def __post_init__(self) -> None:
        if not isinstance(self.address, IPv6Address):
            object.__setattr__(self, "address", IPv6Address(self.address))

    def encode(self, buffer: bytearray, offsets: Offsets | None) -> None:
        buffer += self.address.packed

    @classmethod
    def decode(cls, data: bytes, offset: int, rdlength: int) -> "AAAA":
        if rdlength != 16:
            raise DecodeError(f"AAAA record rdlength {rdlength} != 16")
        return cls(IPv6Address(data[offset : offset + 16]))


class _SingleName(Rdata):
    """Shared implementation for RDATA that is one compressible name."""

    __slots__ = ("target",)

    def __init__(self, target: Name | str):
        self.target = Name.from_text(target) if isinstance(target, str) else target

    def encode(self, buffer: bytearray, offsets: Offsets | None) -> None:
        self.target.encode(buffer, offsets)

    @classmethod
    def decode(cls, data: bytes, offset: int, rdlength: int):
        name, _ = Name.decode(data, offset)
        return cls(name)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.target == self.target  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.target))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.target})"


@register(RRType.NS)
class NS(_SingleName):
    """Name-server record — the vehicle for the NS-name cookie scheme."""

    __slots__ = ()


@register(RRType.CNAME)
class CNAME(_SingleName):
    """Canonical-name alias record."""

    __slots__ = ()


@register(RRType.PTR)
class PTR(_SingleName):
    """Pointer record (reverse lookups)."""

    __slots__ = ()


@register(RRType.MX)
@dataclasses.dataclass(frozen=True, slots=True)
class MX(Rdata):
    """Mail-exchanger record."""

    preference: int
    exchange: Name

    def encode(self, buffer: bytearray, offsets: Offsets | None) -> None:
        buffer += struct.pack("!H", self.preference)
        self.exchange.encode(buffer, offsets)

    @classmethod
    def decode(cls, data: bytes, offset: int, rdlength: int) -> "MX":
        if rdlength < 3:
            raise DecodeError("MX record too short")
        (pref,) = struct.unpack_from("!H", data, offset)
        exchange, _ = Name.decode(data, offset + 2)
        return cls(pref, exchange)


@register(RRType.SRV)
@dataclasses.dataclass(frozen=True, slots=True)
class SRV(Rdata):
    """Service-location record (RFC 2782)."""

    priority: int
    weight: int
    port: int
    target: Name

    def encode(self, buffer: bytearray, offsets: Offsets | None) -> None:
        buffer += struct.pack("!HHH", self.priority, self.weight, self.port)
        # RFC 2782 forbids compressing the SRV target
        self.target.encode(buffer, offsets=None)

    @classmethod
    def decode(cls, data: bytes, offset: int, rdlength: int) -> "SRV":
        if rdlength < 7:
            raise DecodeError("SRV record too short")
        priority, weight, port = struct.unpack_from("!HHH", data, offset)
        target, _ = Name.decode(data, offset + 6)
        return cls(priority, weight, port, target)


@register(RRType.SOA)
@dataclasses.dataclass(frozen=True, slots=True)
class SOA(Rdata):
    """Start-of-authority record."""

    mname: Name
    rname: Name
    serial: int
    refresh: int
    retry: int
    expire: int
    minimum: int

    def encode(self, buffer: bytearray, offsets: Offsets | None) -> None:
        self.mname.encode(buffer, offsets)
        self.rname.encode(buffer, offsets)
        buffer += struct.pack(
            "!IIIII", self.serial, self.refresh, self.retry, self.expire, self.minimum
        )

    @classmethod
    def decode(cls, data: bytes, offset: int, rdlength: int) -> "SOA":
        mname, offset = Name.decode(data, offset)
        rname, offset = Name.decode(data, offset)
        if offset + 20 > len(data):
            raise DecodeError("SOA record too short")
        serial, refresh, retry, expire, minimum = struct.unpack_from("!IIIII", data, offset)
        return cls(mname, rname, serial, refresh, retry, expire, minimum)


@register(RRType.TXT)
@dataclasses.dataclass(frozen=True, slots=True)
class TXT(Rdata):
    """Text record — carries the cookie in the modified-DNS scheme (Fig 3b)."""

    strings: tuple[bytes, ...]

    def __post_init__(self) -> None:
        normalized = tuple(
            s.encode("ascii") if isinstance(s, str) else bytes(s) for s in self.strings
        )
        for s in normalized:
            if len(s) > 255:
                raise EncodeError("TXT character-string longer than 255 bytes")
        object.__setattr__(self, "strings", normalized)

    @classmethod
    def single(cls, payload: bytes | str) -> "TXT":
        """A TXT record holding one character-string."""
        return cls((payload,))

    @property
    def payload(self) -> bytes:
        """All character-strings joined — convenient for cookie extraction."""
        return b"".join(self.strings)

    def encode(self, buffer: bytearray, offsets: Offsets | None) -> None:
        for s in self.strings:
            buffer.append(len(s))
            buffer += s

    @classmethod
    def decode(cls, data: bytes, offset: int, rdlength: int) -> "TXT":
        end = offset + rdlength
        strings: list[bytes] = []
        while offset < end:
            length = data[offset]
            offset += 1
            if offset + length > end:
                raise DecodeError("TXT character-string runs past RDATA")
            strings.append(data[offset : offset + length])
            offset += length
        return cls(tuple(strings))


@register(RRType.OPT)
@dataclasses.dataclass(frozen=True, slots=True)
class OPT(Rdata):
    """EDNS(0) pseudo-record RDATA: a sequence of (code, data) options.

    Used only by the RFC 7873 DNS-cookie extension module; classic-1035
    messages in the paper never carry it.
    """

    options: tuple[tuple[int, bytes], ...] = ()

    def encode(self, buffer: bytearray, offsets: Offsets | None) -> None:
        for code, payload in self.options:
            buffer += struct.pack("!HH", code, len(payload))
            buffer += payload

    @classmethod
    def decode(cls, data: bytes, offset: int, rdlength: int) -> "OPT":
        end = offset + rdlength
        options: list[tuple[int, bytes]] = []
        while offset < end:
            if offset + 4 > end:
                raise DecodeError("EDNS option header runs past RDATA")
            code, length = struct.unpack_from("!HH", data, offset)
            offset += 4
            if offset + length > end:
                raise DecodeError("EDNS option data runs past RDATA")
            options.append((code, data[offset : offset + length]))
            offset += length
        return cls(tuple(options))

    def option(self, code: int) -> bytes | None:
        """The first option payload with ``code``, or ``None``."""
        for c, payload in self.options:
            if c == code:
                return payload
        return None
