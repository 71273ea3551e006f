"""Unit tests for containment's periodic sampler and its two readers."""

import pytest

from repro.experiments.containment import (
    PeriodicSampler,
    completed_rate,
    cpu_utilization,
)
from repro.netsim import Node, Simulator


class _FakeStats:
    def __init__(self):
        self.completed = 0


def _throughput(sim, stats):
    return PeriodicSampler(sim, "throughput", completed_rate(stats, 0.1), 0.1)


def _cpu(node):
    return PeriodicSampler(node.sim, "cpu", cpu_utilization(node), 0.1)


class TestThroughputSeries:
    def test_samples_completed_deltas(self):
        sim = Simulator()
        stats = _FakeStats()
        series = _throughput(sim, stats)
        series.start()
        # 10 completions every 0.01 s => 1000/sec, spread over 0.3 s
        for i in range(30):
            sim.schedule(i * 0.01, lambda: setattr(stats, "completed", stats.completed + 10))
        sim.run(until=0.35)
        series.stop()
        assert len(series.samples) == 3
        assert series.gauge.mean() == pytest.approx(1000.0, rel=0.15)

    def test_stop_halts_sampling(self):
        sim = Simulator()
        series = _throughput(sim, _FakeStats())
        series.start()
        sim.run(until=0.25)
        series.stop()
        sim.run(until=1.0)
        assert len(series.samples) <= 3


class TestCpuSeries:
    def test_utilization_sampling(self):
        sim = Simulator()
        node = Node(sim, "n")
        node.cpu.queue_limit = 10.0
        series = _cpu(node)
        series.start()
        for _ in range(5):
            node.cpu.submit(0.1, None)  # 0.5 s of work in a 1 s window
        sim.run(until=1.05)
        series.stop()
        assert series.gauge.mean() == pytest.approx(0.5, abs=0.1)

    def test_idle_node_reads_zero(self):
        sim = Simulator()
        node = Node(sim, "n")
        series = _cpu(node)
        series.start()
        sim.run(until=0.55)
        series.stop()
        assert series.gauge.mean() == 0.0
