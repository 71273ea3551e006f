"""The repo benchmark: five paper-scale workloads, end to end and by layer.

Run ``python3 -m bench`` from the repository root (``BENCHMARK.json`` is
the contract; ``bench/README.md`` the manual).
"""
