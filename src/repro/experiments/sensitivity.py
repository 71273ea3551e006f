"""Sensitivity analysis: are the paper's claims robust to our calibration?

Absolute throughputs in this reproduction come from the CPU cost model
(:class:`repro.guard.GuardCosts`), calibrated to the paper's anchors.  This
experiment perturbs every cost constant and re-derives the paper's
*qualitative* claims from the fluid model, checking that none of them is an
artifact of the particular constants chosen:

1. scheme ordering: NS-name ≈ modified > fabricated > TCP (Table III);
2. cache hits outrun cache misses for every UDP scheme;
3. the guard protects: legitimate throughput under a 250K attack stays a
   large multiple of the unprotected server's;
4. the guard's saturation knee sits well above the ANS's own capacity.
"""

from __future__ import annotations

import dataclasses
import itertools

from ..guard import GuardCosts
from .fluid import FluidModel

#: Multiplicative perturbations applied to each cost constant.
DEFAULT_FACTORS = (0.5, 1.0, 2.0)

_FIELDS = ("per_packet", "cookie", "fabricate", "rewrite", "tcp_segment")


@dataclasses.dataclass(slots=True)
class SensitivityResult:
    """Outcome of one perturbed configuration."""

    factors: dict[str, float]
    ordering_holds: bool
    hits_beat_misses: bool
    guard_keeps_up: bool  # can this guard hardware sustain the ANS at all?
    protected_at_15x: float  # legit req/s at attack = 1.5x ANS capacity
    knee_over_ans_capacity: float


def _check(model: FluidModel) -> tuple[bool, bool, bool, float, float]:
    miss = {s: model.throughput(s, cache_hit=False) for s in
            ("ns_name", "fabricated", "tcp", "modified")}
    hit = {s: model.throughput(s, cache_hit=True) for s in
           ("ns_name", "fabricated", "modified")}
    ordering = (
        miss["ns_name"] > miss["fabricated"] > miss["tcp"]
        and miss["modified"] > miss["fabricated"]
    )
    hits_beat = all(hit[s] >= miss[s] for s in hit)
    ans_capacity = 1.0 / model.ans_cost
    keeps_up = model.throughput("modified", cache_hit=True) >= ans_capacity
    protected = model.legit_throughput_under_attack(1.5 * ans_capacity)
    knee = model.guard_saturation_attack_rate() / ans_capacity
    return ordering, hits_beat, keeps_up, protected, knee


def run_sensitivity(factors=DEFAULT_FACTORS) -> list[SensitivityResult]:
    """Perturb each cost constant over ``factors``, one at a time and in a
    full-factorial sweep over {min, max} corners."""
    results: list[SensitivityResult] = []
    base = GuardCosts()

    def evaluate(multipliers: dict[str, float]) -> SensitivityResult:
        costs = GuardCosts(
            **{
                field: getattr(base, field) * multipliers.get(field, 1.0)
                for field in _FIELDS
            },
            tcp_conn_scan=base.tcp_conn_scan,
        )
        model = FluidModel(costs=costs)
        ordering, hits_beat, keeps_up, protected, knee = _check(model)
        return SensitivityResult(
            multipliers, ordering, hits_beat, keeps_up, protected, knee
        )

    # one-at-a-time
    for field in _FIELDS:
        for factor in factors:
            results.append(evaluate({field: factor}))
    # corners of the hypercube over the extreme factors
    low, high = min(factors), max(factors)
    for corner in itertools.product((low, high), repeat=len(_FIELDS)):
        results.append(evaluate(dict(zip(_FIELDS, corner))))
    return results


def summarize(results: list[SensitivityResult]) -> dict[str, float]:
    total = len(results)
    feasible = [r for r in results if r.guard_keeps_up]
    return {
        "configurations": total,
        "ordering_holds": sum(r.ordering_holds for r in results) / total,
        "hits_beat_misses": sum(r.hits_beat_misses for r in results) / total,
        "feasible_fraction": len(feasible) / total,
        # within feasible configs: the guard still delivers at an attack
        # rate 1.5x the ANS's capacity, where the unprotected server is dead
        "min_protected_at_15x": min(r.protected_at_15x for r in feasible),
        "median_knee_over_ans": sorted(r.knee_over_ans_capacity for r in feasible)[
            len(feasible) // 2
        ],
    }


def cells(results: list[SensitivityResult]) -> dict:
    # the unperturbed configuration is the paper's regime
    default = next(r for r in results if all(v == 1.0 for v in r.factors.values()))
    return {
        **summarize(results),
        "default.ordering_holds": default.ordering_holds,
        "default.guard_keeps_up": default.guard_keeps_up,
        "default.knee_over_ans": default.knee_over_ans_capacity,
    }


def format_sensitivity(results: list[SensitivityResult]) -> str:
    summary = summarize(results)
    return "\n".join(
        [
            "Sensitivity of the paper's qualitative claims to the cost model",
            f"  configurations tested: {summary['configurations']:.0f} "
            f"(each cost x0.5..x2, one-at-a-time and all corners)",
            f"  scheme ordering holds:          {summary['ordering_holds']:.0%}",
            f"  cache hits beat misses:         {summary['hits_beat_misses']:.0%}",
            f"  guard hardware keeps up:        {summary['feasible_fraction']:.0%} "
            f"of configurations",
            "  within those, at attack = 1.5x ANS capacity (unprotected: 0 req/s):",
            f"    worst-case protected rate:    "
            f"{summary['min_protected_at_15x'] / 1000:.0f}K req/s",
            f"    median saturation knee:       {summary['median_knee_over_ans']:.1f}x "
            f"the ANS's capacity",
        ]
    )
