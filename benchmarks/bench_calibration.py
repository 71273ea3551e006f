"""Calibration bench: the substrate capacities quoted in §IV.A/§IV.C.

Paper: BIND serves 14K req/s over UDP and 2.2K req/s over TCP; the ANS
simulator reaches ~110K req/s.  These are the anchors every other
experiment leans on, so we measure them first.
"""

from conftest import record

from repro import ANS_ADDRESS, GuardTestbed, LrsSimulator, TcpLoadClient


def _saturate_udp(ans_kind: str) -> float:
    bed = GuardTestbed(ans=ans_kind, zone_origin="foo.com.", answer_ttl=3600,
                       guard_enabled=False)
    client = bed.add_client("lrs")
    lrs = LrsSimulator(client, ANS_ADDRESS, workload="plain", concurrency=128)
    lrs.start()
    (rate,) = bed.measure([lrs.stats], 0.3, warmup=0.2)
    lrs.stop()
    return rate


def _saturate_tcp() -> float:
    bed = GuardTestbed(ans="bind", zone_origin="foo.com.", answer_ttl=3600,
                       guard_enabled=False, cookie_subnet=None)
    client = bed.add_client("lrs")
    tcp = TcpLoadClient(client, ANS_ADDRESS, concurrency=16)
    tcp.start()
    (rate,) = bed.measure([tcp.stats], 0.5, warmup=0.3)
    tcp.stop()
    return rate


def test_bind_udp_capacity():
    rate = _saturate_udp("bind")
    record(
        "calibration_bind_udp",
        f"BIND UDP capacity: measured {rate / 1000:.1f}K req/s (paper: 14K)",
    )
    assert 12_000 < rate < 16_000


def test_bind_tcp_capacity():
    rate = _saturate_tcp()
    record(
        "calibration_bind_tcp",
        f"BIND TCP capacity: measured {rate / 1000:.2f}K req/s (paper: 2.2K)",
    )
    assert 1_700 < rate < 2_700


def test_ans_simulator_capacity():
    rate = _saturate_udp("simulator")
    record(
        "calibration_ans_simulator",
        f"ANS simulator capacity: measured {rate / 1000:.1f}K req/s (paper: ~110K)",
    )
    assert 100_000 < rate < 120_000
