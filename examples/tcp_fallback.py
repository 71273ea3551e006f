"""The TCP-based scheme: truncation redirect + transparent kernel proxy (§III.C).

The guard answers suspect UDP queries with a TC=1 flag; RFC-compliant
resolvers retry over TCP, whose three-way handshake proves their address
(the sequence number is the cookie).  The guard's TCP proxy terminates the
connection with SYN cookies — so even a SYN flood leaves zero state — and
relays the query to the ANS over UDP.

Run:  python examples/tcp_fallback.py
"""

from repro import ANS_ADDRESS, GuardTestbed, LrsSimulator
from repro.netsim import Packet, TcpFlags, TcpSegment, parse_address

# policy="tcp": unverified requesters are redirected to TCP
bed = GuardTestbed(ans="simulator", ans_mode="answer", guard_policy="tcp")

resolver_node = bed.add_client("resolver")
resolver = LrsSimulator(resolver_node, ANS_ADDRESS, workload="plain", timeout=0.05)
resolver.start()
bed.run(0.5)
resolver.stop()

print("TCP fallback under normal operation (0.5 simulated seconds):")
print(f"  truncation redirects sent:  {bed.guard.truncations_sent:>7}")
print(f"  queries proxied over TCP:   {bed.guard.tcp_proxy.requests_proxied:>7}")
print(f"  queries completed:          {resolver.stats.completed:>7}")

# -- now a spoofed SYN flood against the proxy --------------------------------
attacker_node = bed.add_client("attacker")
for i in range(2000):
    syn = TcpSegment(sport=10000 + (i % 50000), dport=53, seq=i, ack=0, flags=TcpFlags.SYN)
    attacker_node.send(
        Packet(
            src=parse_address(f"172.29.{i % 200}.{i % 250 + 1}"),
            dst=ANS_ADDRESS,
            segment=syn,
        )
    )
bed.run(0.5)

print()
print("After 2000 spoofed SYNs:")
print(f"  half-open connections held by the proxy: {bed.guard_node.tcp.open_connections}")
print()
print("SYN cookies make the listener stateless: each spoofed SYN got a")
print("SYN-ACK whose sequence number only the true address owner could")
print("echo, and none ever came back.")

assert resolver.stats.completed > 100
assert bed.guard_node.tcp.open_connections == 0
