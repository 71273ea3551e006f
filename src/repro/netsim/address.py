"""IPv4 addresses: 32-bit ints inside the simulator, ``IPv4Address`` at its edges.

As in the paper's iptables module, an address a packet carries, a table
keys on or a guard hashes is a plain ``int``.  ``IPv4Address`` is met at three
edges only: configuration (``add_address("10.0.0.1")``, constructor
arguments, the public send/connect/bind calls), parsed once by
:func:`parse_address`; A-record rdata in :mod:`repro.dnswire`; and every
printed or traced form, dotted by :func:`format_address` (the event trace
through :func:`address_args`).  ``tests/property/test_routing_tables.py``
and ``tests/integration/test_address_representation.py`` hold it.
"""

from __future__ import annotations

from ipaddress import IPv4Address, IPv4Network

from .errors import AddressError


#: any spelling configuration may use for one address
Address = IPv4Address | str | int


def parse_address(address: Address) -> int:
    """The 32-bit integer of ``address``, given as dotted text, an
    ``IPv4Address`` or an int (range-checked either way)."""
    return int(IPv4Address(address))


def format_address(address: int) -> str:
    """Dotted-quad text of the address integer ``address``, as
    ``str(IPv4Address(address))`` spells it."""
    return ".".join(map(str, address.to_bytes(4, "big")))


def parse_network(subnet: IPv4Network | str) -> tuple[int, int]:
    """``(network, netmask)`` of ``subnet`` as ints: ``address`` is inside
    iff ``address & netmask == network``."""
    network = IPv4Network(subnet)
    return int(network.network_address), int(network.netmask)


def address_args(*positions: int):
    """Mark an event callback whose positional arguments at ``positions``
    are addresses (or lists of them): the determinism trace describes them
    in dotted text, not as the bare ints a port or a count also is."""

    def mark(callback):
        callback.address_args = positions
        return callback

    return mark


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
