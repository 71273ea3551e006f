"""IPv4 address allocation helpers built on :mod:`ipaddress`.

The testbed assigns addresses out of named subnets (the guard's protected
subnet ``1.2.3.0/24`` matters to the fabricated-NS-IP cookie scheme, whose
strength is the usable host range ``R_y``).

Addresses are :class:`~ipaddress.IPv4Address` in every packet and
``str()``.  Only the tables a packet is looked up in — :class:`Node`'s
ownership set and route cache, the UDP socket table, the TCP connection,
TIME_WAIT and listener tables, the guards' tables (the local guard's
per-(server, client) cookies, the remote guard's pending exchanges and
verified sources, the RFC 7873 shim's, the TCP proxy's) — and the whole of
``repro.guard.core`` (cookies hash the integer's 4 big-endian bytes, the
rate limiters and top-requester tracker key on it) use the address's 32-bit
integer: the stdlib hashes an address in Python (``hash(hex(int(self._ip)))``)
and an int in C.  They read it from the stdlib's ``_ip`` slot — ``int(addr)``
is a Python frame that gives most of the gain back — once per packet at each
adapter's entry point, as does a route-cache miss, which tests
``dst._ip & netmask._ip == network_address._ip`` (``IPv4Network``'s own
``__contains__`` without its frame).  The slot is read on 21 lines of code in 7
files (14 in 5 before ``guard.core`` took ints);
``tests/property/test_routing_tables.py`` pins ``_ip == int(addr)``.
"""

from __future__ import annotations

from ipaddress import IPv4Address, IPv4Network

from .errors import AddressError


def bind_key(ip: IPv4Address | None, port: int) -> tuple[int | None, int]:
    """Where a UDP socket or TCP listener table files ``ip:port``
    (``None``: any address)."""
    return (None if ip is None else ip._ip, port)


class SubnetAllocator:
    """Hands out host addresses from one IPv4 subnet, in order."""

    def __init__(self, network: IPv4Network | str):
        if isinstance(network, str):
            network = IPv4Network(network)
        self.network = network
        self._hosts = network.hosts()
        self._allocated: set[IPv4Address] = set()

    def allocate(self) -> IPv4Address:
        """The next free host address in the subnet."""
        for candidate in self._hosts:
            if candidate not in self._allocated:
                self._allocated.add(candidate)
                return candidate
        raise AddressError(f"subnet {self.network} exhausted")

    def claim(self, address: IPv4Address | str) -> IPv4Address:
        """Reserve a specific address (e.g. a well-known server IP)."""
        if isinstance(address, str):
            address = IPv4Address(address)
        if address not in self.network:
            raise AddressError(f"{address} is not in {self.network}")
        if address in self._allocated:
            raise AddressError(f"{address} already allocated")
        self._allocated.add(address)
        return address

    def host_range(self) -> int:
        """Number of usable host addresses — the paper's ``R_y``."""
        return self.network.num_addresses - 2 if self.network.prefixlen < 31 else (
            self.network.num_addresses
        )

    def __contains__(self, address: IPv4Address) -> bool:
        return address in self.network
