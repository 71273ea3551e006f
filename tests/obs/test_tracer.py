"""Multi-node packet taps: dedup, filters, bounded capture."""

from ipaddress import IPv4Address

import pytest

from repro.dns import LrsSimulator
from repro.experiments.testbed import ANS_ADDRESS, GuardTestbed
from repro.netsim import PacketTracer


def _bed_with_load(**lrs_kwargs):
    bed = GuardTestbed(ans="simulator", ans_mode="referral")
    client = bed.add_client("lrs")
    lrs = LrsSimulator(
        client, ANS_ADDRESS, workload="referral", cache_cookies=False, **lrs_kwargs
    )
    return bed, client, lrs


class TestMultiNode:
    def test_shared_link_tapped_once(self):
        bed, client, lrs = _bed_with_load()
        # guard and ans share one link: tapping both nodes must not
        # double-count the packets crossing it
        both = PacketTracer([bed.guard_node, bed.ans_node])
        guard_only = PacketTracer(bed.guard_node)
        lrs.start()
        bed.run(0.05)
        lrs.stop()
        bed.run(0.05)
        both.detach()
        guard_only.detach()
        guard_ans = guard_only.between(IPv4Address(ANS_ADDRESS), bed.guard_node.address)
        assert len(both.between(IPv4Address(ANS_ADDRESS), bed.guard_node.address)) == len(
            guard_ans
        )
        # ...but the two-node tap sees at least as much traffic overall
        assert len(both) >= len(guard_only)

    def test_empty_node_list_rejected(self):
        with pytest.raises(ValueError):
            PacketTracer([])


class TestFilters:
    def test_src_dst_and_protocol_filters(self):
        bed, client, lrs = _bed_with_load()
        to_ans = PacketTracer(bed.guard_node, dst=ANS_ADDRESS, protocol="udp")
        from_client = PacketTracer(bed.guard_node, src=client.address)
        lrs.start()
        bed.run(0.05)
        lrs.stop()
        bed.run(0.05)
        to_ans.detach()
        from_client.detach()
        assert to_ans.records
        assert all(r.dst == ANS_ADDRESS for r in to_ans.records)
        assert all(r.protocol == "udp" for r in to_ans.records)
        assert from_client.records
        assert all(r.src == client.address for r in from_client.records)

    def test_bad_protocol_rejected(self):
        bed, _, _ = _bed_with_load()
        with pytest.raises(ValueError):
            PacketTracer(bed.guard_node, protocol="icmp")


class TestBoundedCapture:
    def test_max_records_counts_overflow(self):
        bed, client, lrs = _bed_with_load()
        tracer = PacketTracer(bed.guard_node, max_records=5)
        lrs.start()
        bed.run(0.05)
        lrs.stop()
        bed.run(0.05)
        tracer.detach()
        assert len(tracer) == 5
        assert tracer.truncated > 0
        assert "not captured (max_records cap)" in tracer.dump()

    def test_zero_cap_stores_nothing(self):
        bed, client, lrs = _bed_with_load()
        tracer = PacketTracer(bed.guard_node, max_records=0)
        lrs.start()
        bed.run(0.02)
        lrs.stop()
        tracer.detach()
        assert len(tracer) == 0
        assert tracer.truncated > 0

    def test_negative_cap_rejected(self):
        bed, _, _ = _bed_with_load()
        with pytest.raises(ValueError):
            PacketTracer(bed.guard_node, max_records=-1)

    def test_clear_resets_truncation(self):
        bed, client, lrs = _bed_with_load()
        tracer = PacketTracer(bed.guard_node, max_records=1)
        lrs.start()
        bed.run(0.02)
        lrs.stop()
        tracer.detach()
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.truncated == 0
