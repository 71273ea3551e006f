"""Analytical (fluid) model of the guard's throughput and CPU curves.

Mirrors the paper's §IV.D back-of-envelope checks ("theoretically, their
throughput should be between 3/2 and 8/6 times ...").  Every prediction is
a closed-form function of :class:`repro.guard.GuardCosts` and the server
service rates, so the discrete-event results can be validated against them
(and vice versa): the ``fluid`` rows of :mod:`repro.experiments.expectations`
hold the predictions to the same paper values as the simulated artefacts.
"""

from __future__ import annotations

import dataclasses

from ..dns import ANS_SIMULATOR_COST
from ..guard import GuardCosts
from . import expectations


@dataclasses.dataclass(frozen=True, slots=True)
class FluidModel:
    """Closed-form throughput/CPU predictions."""

    costs: GuardCosts = GuardCosts()
    ans_cost: float = ANS_SIMULATOR_COST

    # -- per-request guard costs per scheme and cache state -------------------

    def request_cost(self, scheme: str, cache_hit: bool) -> float:
        """Guard CPU-seconds consumed by one completed request."""
        c = self.costs
        hit = c.validate_and_forward + c.transform_response
        if scheme == "ns_name":
            if cache_hit:
                return hit
            return c.fabricate_response + hit
        if scheme == "fabricated":
            served = c.serve_cached_answer
            if cache_hit:
                return c.validate_and_forward + c.transform_response
            return (
                c.fabricate_response  # message 2
                + c.validate_and_forward  # messages 3 -> 4
                + (2 * c.per_packet + c.fabricate)  # message 5 -> 6 (COOKIE2)
                + served  # messages 7 -> 10 via the answer cache
            )
        if scheme == "modified":
            flow = c.validate_and_forward + c.forward  # query in, response back
            if cache_hit:
                return flow
            return c.fabricate_response + flow
        if scheme == "tcp":
            # ~11 proxied segments plus the UDP leg to the ANS
            return 11 * self.costs.tcp_segment_cost(50) + 2 * c.per_packet
        raise ValueError(f"unknown scheme {scheme!r}")

    # -- Table III ---------------------------------------------------------------

    def throughput(self, scheme: str, cache_hit: bool) -> float:
        """Saturated requests/sec: min(guard limit, ANS limit)."""
        guard_limit = 1.0 / self.request_cost(scheme, cache_hit)
        if scheme == "tcp":
            return guard_limit
        ans_limit = 1.0 / self.ans_cost
        return min(guard_limit, ans_limit)

    # -- Figure 6 -----------------------------------------------------------------

    def attack_drop_cost(self) -> float:
        return self.costs.drop_invalid

    def legit_throughput_under_attack(self, attack_rate: float) -> float:
        """Protected legitimate throughput at a given spoofed attack rate."""
        budget = 1.0 - attack_rate * self.attack_drop_cost()
        if budget <= 0:
            return 0.0
        guard_limit = budget / self.request_cost("modified", cache_hit=True)
        return min(guard_limit, 1.0 / self.ans_cost)

    def guard_saturation_attack_rate(self) -> float:
        """The attack rate where the guard's CPU first hits 100% while the
        ANS is saturated with legitimate traffic (Figure 6's knee)."""
        legit = 1.0 / self.ans_cost
        legit_cpu = legit * self.request_cost("modified", cache_hit=True)
        return max(0.0, (1.0 - legit_cpu) / self.attack_drop_cost())

    def unprotected_legit_throughput(self, attack_rate: float) -> float:
        """Without the guard, legitimate requests get the leftover ANS CPU."""
        capacity = 1.0 / self.ans_cost
        return max(0.0, capacity - attack_rate)

    # -- Hybrid fluid/packet mode (repro.experiments.hybrid) -----------------------
    #
    # These closed forms are the calibration reference for the hybrid
    # mode: its measured guard/ANS utilisation and bulk served rate must
    # stay within the `hybrid` ledger rows' bands of them.

    def hybrid_guard_cpu(self, legit_rate: float, attack_rate: float) -> float:
        """Expected guard utilisation under mixed fluid load, protection on."""
        load = legit_rate * self.request_cost(
            "modified", cache_hit=True
        ) + attack_rate * self.attack_drop_cost()
        return min(1.0, max(0.0, load))

    def hybrid_ans_cpu(self, legit_served_rate: float) -> float:
        """Expected ANS utilisation given the bulk load actually served,
        protection on (the flood never reaches the ANS)."""
        return min(1.0, max(0.0, legit_served_rate * self.ans_cost))

    def hybrid_served_rate(
        self, legit_rate: float, attack_rate: float, *, protection: bool = True
    ) -> float:
        """Expected bulk legitimate served rate under a spoofed flood."""
        if protection:
            budget = 1.0 - attack_rate * self.attack_drop_cost()
            if budget <= 0:
                return 0.0
            guard_limit = budget / self.request_cost("modified", cache_hit=True)
            return min(legit_rate, guard_limit, 1.0 / self.ans_cost)
        # unprotected: the guard merely forwards, and the flood competes
        # for the ANS's CPU at full service cost
        ans_left = max(0.0, 1.0 / self.ans_cost - attack_rate)
        return min(legit_rate, ans_left)

    # -- Figure 7 ------------------------------------------------------------------

    def tcp_proxy_throughput(self, concurrency: int) -> float:
        per_request = 11 * self.costs.tcp_segment_cost(concurrency) + 2 * self.costs.per_packet
        return 1.0 / per_request

    def tcp_proxy_under_attack(self, attack_rate: float, concurrency: int = 50) -> float:
        budget = 1.0 - attack_rate * self.attack_drop_cost()
        if budget <= 0:
            return 0.0
        return budget * self.tcp_proxy_throughput(concurrency)


def cells(model: FluidModel) -> dict[str, float]:
    out = {}
    for scheme in expectations.SCHEMES:
        out[f"{scheme}.miss"] = model.throughput(scheme, cache_hit=False) / 1000
        out[f"{scheme}.hit"] = model.throughput(scheme, cache_hit=True) / 1000
        out[f"cost.{scheme}.miss"] = model.request_cost(scheme, cache_hit=False)
    out["cost.hit"] = model.request_cost("ns_name", cache_hit=True)
    out["knee"] = model.guard_saturation_attack_rate()
    out["legit@250K"] = model.legit_throughput_under_attack(250_000)
    out["unprotected@110K"] = model.unprotected_legit_throughput(110_000)
    out["tcp_proxy@50"] = model.tcp_proxy_throughput(50)
    out["tcp_proxy@6000"] = model.tcp_proxy_throughput(6000)
    out["tcp_proxy.attack@250K"] = model.tcp_proxy_under_attack(250_000)
    return expectations.derive(
        out,
        "cost.fabricated.miss/cost.ns_name.miss",
        "cost.ns_name.miss/cost.hit",
        "tcp_proxy@6000/tcp_proxy@50",
    )


def format_predictions(model: FluidModel | None = None) -> str:
    model = model or FluidModel()
    lines = ["Fluid-model predictions (requests/sec)"]
    for scheme in ("ns_name", "fabricated", "tcp", "modified"):
        miss = model.throughput(scheme, cache_hit=False)
        hit = model.throughput(scheme, cache_hit=True)
        lines.append(f"  {scheme:<12} miss {miss / 1000:>7.1f}K   hit {hit / 1000:>7.1f}K")
    lines.append(
        f"  guard saturates at attack rate "
        f"{model.guard_saturation_attack_rate() / 1000:.0f}K req/s"
    )
    lines.append(
        f"  legit throughput at 250K attack: "
        f"{model.legit_throughput_under_attack(250_000) / 1000:.1f}K req/s"
    )
    return "\n".join(lines)
