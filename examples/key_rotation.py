"""Weekly key rotation with the generation bit (§III.E, last paragraph).

The guard overwrites the first bit of every cookie with its key
generation's parity.  On verification it picks the current or previous key
by that bit — so rotating the secret never invalidates cookies cached at
resolvers mid-TTL, and each check still costs exactly one MD5.

Run:  python examples/key_rotation.py
"""

import random
from ipaddress import IPv4Address

from repro import CookieFactory
from repro.guard import random_key

# keys are drawn from a seeded rng, as inside a simulation: the guard
# package never reads OS entropy, so a deployment supplies its own key
rng = random.Random(2006)
factory = CookieFactory(random_key(rng))
resolvers = [IPv4Address(f"10.{i}.0.53") for i in range(1, 6)]

print("Week 0: five resolvers obtain cookies")
week0 = {ip: factory.cookie(int(ip)) for ip in resolvers}
for ip, cookie in week0.items():
    print(f"  {ip}  {cookie.hex()[:16]}…  generation bit={cookie[0] >> 7}")

factory.rotate(random_key(rng))
print("\nWeek 1: the guard rotates its 76-byte secret key")
print(f"  week-0 cookies still valid? "
      f"{all(factory.verify(c, int(ip)) for ip, c in week0.items())}")
week1 = {ip: factory.cookie(int(ip)) for ip in resolvers}
print(f"  fresh cookies carry generation bit={week1[resolvers[0]][0] >> 7}")

checks_before = factory.computations
factory.verify(week0[resolvers[0]], int(resolvers[0]))
factory.verify(week1[resolvers[0]], int(resolvers[0]))
print(f"  MD5 computations per verification: "
      f"{(factory.computations - checks_before) / 2:.0f}")

factory.rotate(random_key(rng))
print("\nWeek 2: another rotation — week-0 cookies have aged out")
print(f"  week-0 cookies valid? "
      f"{any(factory.verify(c, ip) for ip, c in week0.items())}")
print(f"  week-1 cookies valid? "
      f"{all(factory.verify(c, ip) for ip, c in week1.items())}")
