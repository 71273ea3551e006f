"""Hop-Count Filtering (HCF) — the §II related-work baseline [Jin et al.].

Included as an ablation target: HCF infers each source's distance from the
TTL remaining in its packets, learns a source→hop-count table during calm
periods, and filters packets whose hop count disagrees during attacks.  The
paper's critique (false negatives, learning time) is measurable here: a
spoofed packet passes whenever the attacker's real distance matches the
spoofed host's learned distance.
"""

from __future__ import annotations

#: Common initial TTLs used by real stacks; inference picks the smallest
#: candidate >= the observed TTL.
INITIAL_TTLS = (30, 32, 60, 64, 128, 255)


def infer_hop_count(observed_ttl: int) -> int:
    """Hops travelled, assuming the sender used a standard initial TTL."""
    for initial in INITIAL_TTLS:
        if observed_ttl <= initial:
            return initial - observed_ttl
    return 255 - observed_ttl


class HopCountFilter:
    """The HCF table: learn in peacetime, filter under attack."""

    def __init__(self, *, tolerance: int = 0):
        """``tolerance`` allows +/- that many hops of drift before dropping."""
        self.tolerance = tolerance
        self.table: dict[int, int] = {}
        self.filtering = False
        self.learned = 0
        self.passed = 0
        self.dropped = 0
        self.unknown_passed = 0

    def learn(self, source: int, observed_ttl: int) -> None:
        """Record the hop count for ``source`` (trusted, calm traffic)."""
        hops = infer_hop_count(observed_ttl)
        if source not in self.table:
            self.learned += 1
        self.table[source] = hops

    def check(self, source: int, observed_ttl: int) -> bool:
        """True if the packet should be accepted."""
        if not self.filtering:
            self.learn(source, observed_ttl)
            self.passed += 1
            return True
        expected = self.table.get(source)
        if expected is None:
            # never-seen source: HCF must pass it (or drop all new clients)
            self.unknown_passed += 1
            self.passed += 1
            return True
        if abs(infer_hop_count(observed_ttl) - expected) <= self.tolerance:
            self.passed += 1
            return True
        self.dropped += 1
        return False

    def false_negative_rate(self, attacker_hops: int) -> float:
        """Fraction of learned sources an attacker at ``attacker_hops`` can
        impersonate without being filtered — the structural weakness the
        paper cites when dismissing HCF for DNS."""
        if not self.table:
            return 0.0
        matches = sum(
            1 for hops in self.table.values() if abs(hops - attacker_hops) <= self.tolerance
        )
        return matches / len(self.table)
