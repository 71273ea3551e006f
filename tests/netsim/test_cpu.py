"""Unit tests for the CPU service-queue model."""

import pytest

from repro.netsim import Cpu, Simulator


class TestService:
    def test_work_completes_after_cost(self):
        sim = Simulator()
        cpu = Cpu(sim)
        done = []
        cpu.submit(0.5, done.append, "job")
        sim.run()
        assert done == ["job"]
        assert sim.now == 0.5

    def test_fifo_queueing_serialises_jobs(self):
        sim = Simulator()
        cpu = Cpu(sim, queue_limit=10.0)
        completions = []
        cpu.submit(0.3, lambda: completions.append(sim.now))
        cpu.submit(0.3, lambda: completions.append(sim.now))
        sim.run()
        assert completions == [pytest.approx(0.3), pytest.approx(0.6)]

    def test_overload_drops_work(self):
        sim = Simulator()
        cpu = Cpu(sim, queue_limit=0.01)
        accepted = sum(cpu.submit(0.005, None) for _ in range(10))
        assert accepted < 10
        assert cpu.jobs_dropped == 10 - accepted
        assert cpu.jobs_accepted == accepted

    def test_queue_drains_then_accepts_again(self):
        sim = Simulator()
        cpu = Cpu(sim, queue_limit=0.01)
        while cpu.submit(0.005, None):
            pass
        sim.run(until=1.0)  # let virtual time pass so the backlog drains
        assert cpu.submit(0.005, None)

    def test_charge_is_submit_without_callback(self):
        sim = Simulator()
        cpu = Cpu(sim)
        assert cpu.charge(0.2)
        assert cpu.backlog == pytest.approx(0.2)


class TestUtilization:
    def test_idle_cpu_reports_zero(self):
        sim = Simulator()
        cpu = Cpu(sim)
        start_busy, start_time = cpu.completed_busy_seconds(), sim.now
        sim.run(until=1.0)
        assert cpu.utilization(start_busy, start_time) == 0.0

    def test_fully_busy_cpu_reports_one(self):
        sim = Simulator()
        cpu = Cpu(sim, queue_limit=10.0)
        start_busy, start_time = cpu.completed_busy_seconds(), sim.now
        for _ in range(10):
            cpu.submit(0.1, None)
        sim.run(until=1.0)
        assert cpu.utilization(start_busy, start_time) == pytest.approx(1.0)

    def test_half_busy_cpu(self):
        sim = Simulator()
        cpu = Cpu(sim)
        start_busy, start_time = cpu.completed_busy_seconds(), sim.now
        cpu.submit(0.5, None)
        sim.run(until=1.0)
        assert cpu.utilization(start_busy, start_time) == pytest.approx(0.5)

    def test_pending_work_not_counted(self):
        sim = Simulator()
        cpu = Cpu(sim, queue_limit=100.0)
        cpu.submit(5.0, None)
        sim.run(until=1.0)
        # only 1 second of the 5-second job has executed
        assert cpu.completed_busy_seconds() == pytest.approx(1.0)

    def test_backlog_reflects_queued_work(self):
        sim = Simulator()
        cpu = Cpu(sim, queue_limit=100.0)
        cpu.submit(2.0, None)
        assert cpu.backlog == pytest.approx(2.0)
        sim.run(until=1.0)
        assert cpu.backlog == pytest.approx(1.0)

    def test_reset_counters(self):
        sim = Simulator()
        cpu = Cpu(sim)
        cpu.submit(0.1, None)
        cpu.reset_counters()
        assert cpu.jobs_accepted == 0 and cpu.jobs_dropped == 0
