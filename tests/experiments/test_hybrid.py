"""The hybrid fluid/packet mode: what no ledger row can state.

Its agreement bands, its scale and Figure 6's rows over its sweep are
``hybrid`` rows of :mod:`repro.experiments.expectations`, judged by
``python -m repro report``.
"""

from repro.experiments.hybrid import run_hybrid_point


def test_deterministic():
    a = run_hybrid_point(60_000.0, True, seed=0, warmup=0.1, duration=0.2)
    b = run_hybrid_point(60_000.0, True, seed=0, warmup=0.1, duration=0.2)
    assert a == b
