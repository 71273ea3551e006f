"""Protecting a root server — the paper's motivating scenario (§I).

The 2002 incident the paper cites took out seven of the thirteen root
servers.  Here we build a miniature DNS hierarchy (root, com, foo.com),
put the DNS guard in front of the *root* using the NS-name cookie scheme,
and resolve names with a completely unmodified caching recursive resolver
while a spoofing flood hammers the root's address.

The resolver never knows the guard exists: it simply follows a referral
whose nameserver name happens to contain a cookie, and the follow-up query
for that name is the proof-of-address the guard needs.

Run:  python examples/protect_root_server.py
"""

from ipaddress import IPv4Address

from repro import (
    AuthoritativeServer,
    Link,
    LocalRecursiveServer,
    Node,
    RemoteDnsGuard,
    Simulator,
    Zone,
)
from repro.attack import SpoofingAttacker
from repro.dnswire import soa_record

ROOT_IP = IPv4Address("198.41.0.4")
COM_IP = IPv4Address("192.5.6.30")
FOO_IP = IPv4Address("203.0.113.53")

sim = Simulator(seed=2026)
hub = Node(sim, "internet")
hub.add_address("10.255.255.1")


def attach(name: str, ip) -> Node:
    node = Node(sim, name)
    node.add_address(ip)
    link = Link(sim, node, hub, delay=0.0002)
    node.set_default_route(link)
    hub.add_route(f"{ip}/32", link)
    return node


# --- the DNS hierarchy -----------------------------------------------------
root_zone = Zone(".")
root_zone.add(soa_record("."))
root_zone.delegate("com.", "a.gtld-servers.net.", COM_IP)
com_zone = Zone("com.")
com_zone.add(soa_record("com."))
com_zone.delegate("foo.com.", "ns1.foo.com.", FOO_IP)
foo_zone = Zone("foo.com.")
foo_zone.add(soa_record("foo.com."))
foo_zone.add_a("www.foo.com.", "198.51.100.80")
foo_zone.add_a("mail.foo.com.", "198.51.100.25")

com_node = attach("com-ans", COM_IP)
foo_node = attach("foo-ans", FOO_IP)
AuthoritativeServer(com_node, [com_zone])
AuthoritativeServer(foo_node, [foo_zone])

# --- the guarded root -------------------------------------------------------
guard_node = Node(sim, "root-guard")
guard_node.add_address("198.41.0.1")
uplink = Link(sim, guard_node, hub, delay=0.0002)
guard_node.set_default_route(uplink)
hub.add_route(f"{ROOT_IP}/32", uplink)  # the root's IP routes via the guard

root_node = Node(sim, "root-ans")
root_node.add_address(ROOT_IP)
inner = Link(sim, guard_node, root_node, delay=0.00001)
guard_node.add_route(f"{ROOT_IP}/32", inner)
root_node.set_default_route(inner)
root = AuthoritativeServer(root_node, [root_zone])
guard = RemoteDnsGuard(guard_node, ROOT_IP, origin=".")  # key drawn from sim.rng

# --- a legitimate resolver and an attacker ----------------------------------
lrs_node = attach("campus-resolver", "10.0.0.53")
lrs = LocalRecursiveServer(lrs_node, [ROOT_IP], timeout=1.0)

attacker_node = attach("botnet", "10.66.0.1")
attacker = SpoofingAttacker(attacker_node, ROOT_IP, rate=20_000, qname="victim.example")
attacker.start()

# --- resolve through the flood -----------------------------------------------
results = {}
for name in ("www.foo.com", "mail.foo.com"):
    lrs.resolve(name, callback=lambda r, n=name: results.__setitem__(n, r))
sim.run(until=2.0)
attacker.stop()

print("Resolutions through a guarded root under a 20K req/s spoofed flood:")
for name, result in results.items():
    print(f"  {name:<14} -> {result.status:<9} {[str(a) for a in result.addresses()]}")
print()
print(f"  attack packets sent:          {attacker.packets_sent:>7}")
print(f"  fabricated referrals (msg 2): {guard.referrals_fabricated:>7}")
print(f"  cookie queries validated:     {guard.valid_cookies:>7}")
print(f"  queries the root ANS served:  {root.requests_served:>7}")
print()
print("The root answered only the resolver's validated queries; twenty")
print("thousand forged requests per second earned nothing but tiny,")
print("stateless referrals that no real host ever asked for.")

assert all(result.ok for result in results.values())
assert root.requests_served <= guard.valid_cookies
