"""Ablations and baselines beyond the paper's own evaluation.

1. **Hop-count filtering (HCF)** vs cookies — the §II related-work defence.
   HCF's structural false negatives: an attacker sitting N hops from the
   server can impersonate every learned client at distance N.  Cookie
   verification has no such blind spot.
2. **Key rotation**: the paper's generation-bit scheme vs naive rotation.
   Naive rotation invalidates every outstanding cookie at the instant the
   key changes; the generation bit keeps them valid for one period.
3. **Modified-DNS vs RFC 7873**: the paper's scheme against its
   standardised descendant, measured on identical workloads.
"""

from __future__ import annotations

import dataclasses
from ipaddress import IPv4Address, IPv4Network

from ..attack import HopCountFilter
from ..dns import AnsSimulator, LrsSimulator
from ..guard import CookieFactory, EdnsCookieClientShim, EdnsCookieGuard, random_key
from ..netsim import Link, Node, Simulator
from .expectations import INGRESS_FRACTIONS
from .testbed import ANS_ADDRESS, GuardTestbed, measure_window


# ---------------------------------------------------------------------------
# 1. HCF false negatives
# ---------------------------------------------------------------------------

@dataclasses.dataclass(slots=True)
class HcfResult:
    clients_learned: int
    attacker_hops: int
    hcf_false_negative_rate: float
    cookie_false_negative_rate: float


def run_hcf_ablation(
    *, clients: int = 500, attacker_hops: int = 12, seed: int = 7
) -> HcfResult:
    """Learn a realistic hop-count table, then measure impersonation room."""
    # draw from the testbed's seeded RNG plumbing, not the random module
    rng = Simulator(seed=seed).rng
    hcf = HopCountFilter()
    # clients at internet-like distances (roughly normal around 12 hops)
    for i in range(clients):
        hops = max(1, min(30, round(rng.gauss(12, 4))))
        hcf.learn(0x0B000000 + i, 64 - hops)
    hcf.filtering = True
    hcf_fn = hcf.false_negative_rate(attacker_hops)

    # cookies: the attacker must guess the label cookie -> 2^-32 per packet
    cookie_fn = 1.0 / 2**32
    return HcfResult(clients, attacker_hops, hcf_fn, cookie_fn)


# ---------------------------------------------------------------------------
# 1b. Ingress filtering (RFC 2827) vs deployment fraction
# ---------------------------------------------------------------------------

@dataclasses.dataclass(slots=True)
class IngressResult:
    deployment_fraction: float
    spoofed_sent: int
    spoofed_delivered: int

    @property
    def leak_rate(self) -> float:
        return self.spoofed_delivered / self.spoofed_sent if self.spoofed_sent else 0.0


def run_ingress_deployment(
    deploy_fraction: float, *, edges: int = 10, packets_per_edge: int = 100, seed: int = 0
) -> IngressResult:
    """§II: "[ingress filtering's] effectiveness depends on the universal
    deployment."  ``edges`` stub networks each host an attacker; a fraction
    of their edge routers deploy RFC 2827 filters.  Spoofed traffic leaks
    exactly through the non-deploying edges — the guard, by contrast,
    filters at the victim side no matter where the attacker sits.
    """
    from ..dnswire import make_query
    from ..netsim import Hook, Link, Node, Simulator, Verdict
    from ..netsim.netfilter import src_not_in

    sim = Simulator(seed=seed)
    hub = Node(sim, "hub")
    hub.add_address("10.255.255.1")
    ans_node = Node(sim, "ans")
    ans_node.add_address("203.0.113.53")
    uplink = Link(sim, ans_node, hub, delay=0.0001)
    ans_node.set_default_route(uplink)
    hub.add_route("203.0.113.53/32", uplink)
    delivered = [0]
    ans_node.udp.bind(53, lambda p, s, sp, d: delivered.__setitem__(0, delivered[0] + 1))

    deploying = int(round(deploy_fraction * edges))
    sent = 0
    for edge_index in range(edges):
        subnet = f"10.{edge_index + 1}.0.0/24"
        edge_router = Node(sim, f"edge{edge_index}")
        edge_router.add_address(f"10.{edge_index + 1}.0.254")
        up = Link(sim, edge_router, hub, delay=0.0001)
        edge_router.set_default_route(up)
        hub.add_route(subnet, up)
        attacker = Node(sim, f"attacker{edge_index}")
        attacker.add_address(f"10.{edge_index + 1}.0.66")
        down = Link(sim, attacker, edge_router, delay=0.00001)
        attacker.set_default_route(down)
        edge_router.add_route(f"10.{edge_index + 1}.0.66/32", down)
        if edge_index < deploying:
            # the RFC 2827 ingress filter
            edge_router.filters.append(Hook.FORWARD, src_not_in(subnet), Verdict.DROP)
        sock = attacker.udp.bind_ephemeral(lambda *a: None)
        for i in range(packets_per_edge):
            sock.send(
                make_query(f"v{i}.example", msg_id=i),
                ans_node.address,
                53,
                src=IPv4Address(f"172.30.{edge_index}.{i % 250 + 1}"),
            )
            sent += 1
    sim.run(until=1.0)
    return IngressResult(deploy_fraction, sent, delivered[0])


# ---------------------------------------------------------------------------
# 2. Key rotation: generation bit vs naive
# ---------------------------------------------------------------------------

@dataclasses.dataclass(slots=True)
class RotationResult:
    cookies_issued: int
    survivors_with_generation_bit: int
    survivors_naive: int


def run_rotation_ablation(*, cookies: int = 1000, seed: int = 0) -> RotationResult:
    """How many outstanding cookies survive a key change, per design."""
    rng = Simulator(seed=seed).rng
    with_bit = CookieFactory(random_key(rng))
    naive = CookieFactory(random_key(rng))
    sources = [0x0C000000 + i for i in range(cookies)]  # 12.0.0.0 upward
    bit_cookies = [with_bit.cookie(ip) for ip in sources]
    naive_cookies = [naive.cookie(ip) for ip in sources]

    with_bit.rotate(random_key(rng))
    naive.rotate(random_key(rng))
    naive._previous_key = None  # naive rotation forgets the old key

    survivors_bit = sum(with_bit.verify(c, ip) for c, ip in zip(bit_cookies, sources))
    survivors_naive = sum(naive.verify(c, ip) for c, ip in zip(naive_cookies, sources))
    return RotationResult(cookies, survivors_bit, survivors_naive)


# ---------------------------------------------------------------------------
# 3. Modified-DNS vs RFC 7873 throughput
# ---------------------------------------------------------------------------

@dataclasses.dataclass(slots=True)
class SchemeComparison:
    modified_dns_rps: float
    rfc7873_rps: float


def _run_rfc7873_throughput(*, seed: int, warmup: float, duration: float,
                            concurrency: int) -> float:
    sim = Simulator(seed=seed)
    client = Node(sim, "client")
    client.add_address("10.0.0.10")
    shim_node = Node(sim, "shim")
    shim_node.add_address("10.0.0.1")
    guard_node = Node(sim, "guard")
    guard_node.add_address("203.0.113.1")
    ans_node = Node(sim, "ans")
    ans_node.add_address(ANS_ADDRESS)
    l1 = Link(sim, client, shim_node, delay=0.00001)
    l2 = Link(sim, shim_node, guard_node, delay=0.00019)
    l3 = Link(sim, guard_node, ans_node, delay=0.00001)
    client.set_default_route(l1)
    shim_node.add_route("10.0.0.10/32", l1)
    shim_node.set_default_route(l2)
    guard_node.add_route("10.0.0.10/32", l2)
    guard_node.add_route(IPv4Network(ANS_ADDRESS), l3)
    ans_node.set_default_route(l3)
    AnsSimulator(ans_node, mode="answer")
    EdnsCookieGuard(guard_node, ANS_ADDRESS)
    EdnsCookieClientShim(shim_node)
    lrs = LrsSimulator(client, ANS_ADDRESS, workload="plain", concurrency=concurrency)
    lrs.start()
    (rate,), _ = measure_window(sim, [lrs.stats], duration, warmup=warmup)
    lrs.stop()
    return rate


def run_scheme_comparison(
    *, seed: int = 0, warmup: float = 0.15, duration: float = 0.25, concurrency: int = 192
) -> SchemeComparison:
    bed = GuardTestbed(seed=seed, ans="simulator", ans_mode="answer")
    client = bed.add_client("lrs", via_local_guard=True)
    lrs = LrsSimulator(client, ANS_ADDRESS, workload="plain", concurrency=concurrency)
    lrs.start()
    (modified_rate,) = bed.measure([lrs.stats], duration, warmup=warmup)
    lrs.stop()
    rfc_rate = _run_rfc7873_throughput(
        seed=seed, warmup=warmup, duration=duration, concurrency=concurrency
    )
    return SchemeComparison(modified_rate, rfc_rate)


def format_ablation(
    hcf: HcfResult,
    rotation: RotationResult,
    schemes: SchemeComparison,
    ingress: list[IngressResult] | None = None,
) -> str:
    lines = [
        "Ablations",
        f"  HCF false negatives at {hcf.attacker_hops} hops: "
        f"{hcf.hcf_false_negative_rate:.1%} of {hcf.clients_learned} clients "
        f"(cookie guessing: {hcf.cookie_false_negative_rate:.2e})",
        f"  key rotation survivors: generation bit "
        f"{rotation.survivors_with_generation_bit}/{rotation.cookies_issued}, "
        f"naive {rotation.survivors_naive}/{rotation.cookies_issued}",
        f"  throughput: modified DNS {schemes.modified_dns_rps / 1000:.1f}K req/s, "
        f"RFC 7873 {schemes.rfc7873_rps / 1000:.1f}K req/s",
    ]
    if ingress:
        leak = ", ".join(
            f"{r.deployment_fraction:.0%}->{r.leak_rate:.0%}" for r in ingress
        )
        lines.append(
            f"  ingress filtering leak rate by deployment: {leak} "
            f"(the guard: 0% at any deployment)"
        )
    return "\n".join(lines)


def cells(
    hcf: HcfResult,
    rotation: RotationResult,
    schemes: SchemeComparison,
    ingress: list[IngressResult] | None = None,
) -> dict[str, float]:
    out = {
        "hcf.false_negative_rate": hcf.hcf_false_negative_rate,
        "hcf.cookie_false_negative_rate": hcf.cookie_false_negative_rate,
        "rotation.generation_bit_survivors/issued": (
            rotation.survivors_with_generation_bit / rotation.cookies_issued
        ),
        "rotation.naive_survivors": rotation.survivors_naive,
        "rfc7873/modified": schemes.rfc7873_rps / schemes.modified_dns_rps,
    }
    for result in ingress or ():
        out[f"ingress.leak@{result.deployment_fraction:.0%}"] = result.leak_rate
    return out


def run_ablation(seed: int = 0, *, fast: bool = False) -> tuple:
    """Every ablation, in :func:`format_ablation` argument order.  ``fast``
    skips the ingress-deployment sweep (the fractions the ledger has rows for)."""
    ingress = None
    if not fast:
        ingress = [run_ingress_deployment(f, seed=seed) for f in INGRESS_FRACTIONS]
    return (
        run_hcf_ablation(seed=seed),
        run_rotation_ablation(),
        run_scheme_comparison(seed=seed),
        ingress,
    )
