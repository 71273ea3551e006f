"""Unit tests for the testbed builder and calibration constants."""

from ipaddress import IPv4Address

import pytest

from repro.dns import LrsSimulator
from repro.experiments import calibration, expectations
from repro.experiments.testbed import ANS_ADDRESS, GuardTestbed


class TestTestbedConstruction:
    def test_defaults_build_simulator_ans(self):
        bed = GuardTestbed()
        assert bed.guard.enabled
        assert bed.ans_node.address == ANS_ADDRESS

    def test_bind_ans_option(self):
        from repro.dns import AuthoritativeServer

        bed = GuardTestbed(ans="bind", zone_origin="foo.com.")
        assert isinstance(bed.ans, AuthoritativeServer)

    def test_unknown_ans_rejected(self):
        with pytest.raises(ValueError):
            GuardTestbed(ans="powerdns")

    def test_client_addresses_unique(self):
        bed = GuardTestbed()
        a = bed.add_client("a")
        b = bed.add_client("b")
        assert a.address != b.address

    def test_explicit_client_address(self):
        bed = GuardTestbed()
        node = bed.add_client("x", address="10.0.7.7")
        assert node.address == IPv4Address("10.0.7.7")

    def test_local_guard_client_has_shim(self):
        bed = GuardTestbed()
        node = bed.add_client("lrs", via_local_guard=True)
        assert hasattr(node, "local_guard")

    def test_lan_rtt_calibrated_to_paper(self):
        """Client-to-ANS RTT should be the paper's 0.4 ms."""
        bed = GuardTestbed(guard_enabled=False)
        client = bed.add_client("lrs")
        lrs = LrsSimulator(client, ANS_ADDRESS, workload="plain")
        lrs.record_latencies = True
        lrs.start()
        bed.run(0.01)
        lrs.stop()
        assert lrs.latencies[0] == pytest.approx(0.0004, rel=0.15)

    def test_wan_rtt_calibrated_to_paper(self):
        """WAN client RTT should be the paper's 10.9 ms."""
        bed = GuardTestbed(guard_enabled=False)
        client = bed.add_client("lrs", wan=True)
        lrs = LrsSimulator(client, ANS_ADDRESS, workload="plain", timeout=0.2)
        lrs.record_latencies = True
        lrs.start()
        bed.run(0.2)
        lrs.stop()
        assert lrs.latencies[0] == pytest.approx(calibration.WAN_RTT, rel=0.05)

    def test_measure_returns_throughputs(self):
        bed = GuardTestbed()
        client = bed.add_client("lrs")
        lrs = LrsSimulator(client, ANS_ADDRESS, workload="plain", concurrency=4)
        lrs.start()
        (rate,) = bed.measure([lrs.stats], 0.1, warmup=0.05)
        lrs.stop()
        assert rate > 0

    def test_cpu_utilization_helper(self):
        bed = GuardTestbed()
        client = bed.add_client("lrs")
        lrs = LrsSimulator(client, ANS_ADDRESS, workload="plain", concurrency=64)
        lrs.start()
        bed.run(0.05)
        utilization = bed.cpu_utilization(bed.ans_node, 0.1)
        lrs.stop()
        assert 0.5 < utilization <= 1.0


class TestCalibrationConstants:
    def test_capacity_anchors(self):
        for cost, cell in (
            (calibration.BIND_UDP_COST, "bind_udp"),
            (calibration.BIND_TCP_COST, "bind_tcp"),
            (calibration.ANS_SIMULATOR_COST, "ans_simulator"),
        ):
            assert cost == pytest.approx(1 / expectations.paper("calibration", cell))

    def test_timers(self):
        assert calibration.BIND_TIMEOUT == 2.0
        assert calibration.LRS_SIMULATOR_TIMEOUT == 0.010

    def test_wan_delay_composes_to_rtt(self):
        rtt = 2 * (calibration.WAN_LINK_DELAY + calibration.ANS_LINK_DELAY)
        assert rtt == pytest.approx(calibration.WAN_RTT, rel=0.01)

    def test_lan_delay_composes_to_testbed_rtt(self):
        rtt = 2 * (calibration.LAN_LINK_DELAY + calibration.ANS_LINK_DELAY)
        assert rtt == pytest.approx(0.0004, rel=0.01)
