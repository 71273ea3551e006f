"""Unit tests for the subnet allocator and the address edges."""

from ipaddress import IPv4Address, IPv4Network

import pytest

from repro.netsim import AddressError, EventTrace, SubnetAllocator, address_args, parse_address


class Server:
    name = "ans"

    @address_args(1, 3)
    def serve(self, query, src, sport, dst):
        pass

    @address_args(0)
    def retry(self, servers):
        pass


class ObjectServer:
    """The same callbacks, unmarked, fed ``IPv4Address`` objects."""

    name = "ans"

    def serve(self, query, src, sport, dst):
        pass

    def retry(self, servers):
        pass


def _arguments(callback, *args):
    trace = EventTrace(keep_events=True)
    trace.record(0.5, 3, callback, args)
    return trace.descriptions[0].split("(", 1)[1]


class TestSubnetAllocator:
    def test_allocates_in_order(self):
        alloc = SubnetAllocator("10.0.0.0/29")
        assert alloc.allocate() == IPv4Address("10.0.0.1")
        assert alloc.allocate() == IPv4Address("10.0.0.2")

    def test_exhaustion_raises(self):
        alloc = SubnetAllocator("10.0.0.0/30")  # 2 usable hosts
        alloc.allocate()
        alloc.allocate()
        with pytest.raises(AddressError):
            alloc.allocate()

    def test_claim_specific(self):
        alloc = SubnetAllocator("10.0.0.0/24")
        assert alloc.claim("10.0.0.53") == IPv4Address("10.0.0.53")

    def test_claim_outside_subnet_rejected(self):
        alloc = SubnetAllocator("10.0.0.0/24")
        with pytest.raises(AddressError):
            alloc.claim("192.168.1.1")

    def test_double_claim_rejected(self):
        alloc = SubnetAllocator("10.0.0.0/24")
        alloc.claim("10.0.0.53")
        with pytest.raises(AddressError):
            alloc.claim("10.0.0.53")

    def test_host_range_is_r_y(self):
        assert SubnetAllocator("10.0.0.0/24").host_range() == 254
        assert SubnetAllocator("10.0.0.0/28").host_range() == 14

    def test_contains(self):
        alloc = SubnetAllocator("10.0.0.0/24")
        assert IPv4Address("10.0.0.7") in alloc
        assert IPv4Address("10.0.1.7") not in alloc

    def test_network_object_accepted(self):
        alloc = SubnetAllocator(IPv4Network("172.16.0.0/30"))
        assert alloc.allocate() in IPv4Network("172.16.0.0/30")


class TestTracedAddresses:
    """An event's address arguments are ints now; the determinism trace
    describes a marked callback's as it described the objects, so every
    trace hash stays comparable across the change of representation."""

    def test_marked_arguments_read_as_the_objects_did(self):
        src, dst = "10.0.0.10", "203.0.113.53"
        as_ints = _arguments(Server().serve, "q", parse_address(src), 49152, parse_address(dst))
        as_objects = _arguments(
            ObjectServer().serve, "q", IPv4Address(src), 49152, IPv4Address(dst)
        )
        assert as_ints == as_objects == "'q',10.0.0.10,49152,203.0.113.53)"

    def test_a_marked_list_reads_address_by_address(self):
        servers = ["198.41.0.4", "192.5.6.30"]
        as_ints = _arguments(Server().retry, [parse_address(ip) for ip in servers])
        as_objects = _arguments(ObjectServer().retry, [IPv4Address(ip) for ip in servers])
        assert as_ints == as_objects == "[198.41.0.4,192.5.6.30])"
