"""Edge-case tests for the CPU model: queue boundary, drop-path burn,
utilisation windows and mid-service busy accounting."""

import pytest

from repro.netsim import Cpu, Simulator


class TestQueueBoundary:
    def test_backlog_exactly_at_limit_still_accepts(self):
        sim = Simulator()
        cpu = Cpu(sim, queue_limit=0.01)
        assert cpu.submit(0.01, lambda: None)
        assert cpu.backlog == pytest.approx(0.01)
        # the drop condition is strictly *over* the limit
        assert cpu.submit(0.005, lambda: None)
        assert not cpu.submit(0.005, lambda: None)
        assert cpu.jobs_accepted == 2
        assert cpu.jobs_dropped == 1

    def test_dropped_callback_work_burns_nothing(self):
        sim = Simulator()
        cpu = Cpu(sim, queue_limit=0.01)
        assert cpu.submit(0.02, lambda: None)
        backlog = cpu.backlog
        assert not cpu.submit(0.01, lambda: None)
        # a refused *service* job vanishes: no burn, no horizon extension
        assert cpu.work_dropped_seconds == 0.0
        assert cpu.backlog == pytest.approx(backlog)


class TestDropPathBurn:
    def test_pure_accounting_burns_at_the_limit(self):
        sim = Simulator()
        cpu = Cpu(sim, queue_limit=0.01)
        assert cpu.submit(0.02, lambda: None)
        assert not cpu.charge(0.005)
        assert cpu.jobs_dropped == 1
        assert cpu.work_dropped_seconds == pytest.approx(0.005)
        # the burn extends the busy horizon: discarding still costs cycles
        assert cpu.backlog == pytest.approx(0.025)

    def test_burned_work_counts_toward_busy_time(self):
        sim = Simulator()
        cpu = Cpu(sim, queue_limit=0.01)
        cpu.submit(0.02, lambda: None)
        cpu.charge(0.01)  # burned
        sim.run(until=1.0)
        assert cpu.completed_busy_seconds() == pytest.approx(0.03)

    def test_reset_counters_clears_drop_accounting(self):
        sim = Simulator()
        cpu = Cpu(sim, queue_limit=0.01)
        cpu.submit(0.02, lambda: None)
        cpu.charge(0.01)
        cpu.reset_counters()
        assert cpu.jobs_accepted == 0
        assert cpu.jobs_dropped == 0
        assert cpu.work_dropped_seconds == 0.0
        # executed-busy integration is measurement state, not a counter
        sim.run(until=1.0)
        assert cpu.completed_busy_seconds() == pytest.approx(0.03)


class TestMultiCoreUtilization:
    """Utilisation-window edges.  (The CPU has one core; the class keeps the
    name its test ids were recorded under.)"""

    def test_idle_window_after_drain_reads_zero(self):
        sim = Simulator()
        cpu = Cpu(sim, queue_limit=10.0)
        cpu.charge(0.5)
        sim.run(until=0.5)
        busy = cpu.completed_busy_seconds()
        sim.run(until=1.0)
        assert cpu.utilization(busy, 0.5) == pytest.approx(0.0)

    def test_result_is_clamped_to_unit_interval(self):
        sim = Simulator()
        cpu = Cpu(sim, queue_limit=10.0)
        cpu.charge(0.5)
        sim.run(until=0.5)
        # a bogus (negative) prior reading cannot push the ratio past 1
        assert cpu.utilization(-5.0, 0.4) == pytest.approx(1.0)
        # ...nor can a later one drive it below 0
        assert cpu.utilization(5.0, 0.4) == pytest.approx(0.0)

    def test_empty_window_reads_zero(self):
        sim = Simulator()
        cpu = Cpu(sim)
        assert cpu.utilization(0.0, sim.now) == 0.0


class TestMidServiceAccounting:
    def test_completed_busy_seconds_mid_service(self):
        sim = Simulator()
        cpu = Cpu(sim)
        cpu.submit(1.0, lambda: None)
        sim.run(until=0.4)
        # 0.4 s of the 1.0 s job has executed; the rest is still pending
        assert cpu.completed_busy_seconds() == pytest.approx(0.4)
        sim.run(until=2.0)
        assert cpu.completed_busy_seconds() == pytest.approx(1.0)

    def test_mid_service_utilization_window(self):
        sim = Simulator()
        cpu = Cpu(sim)
        cpu.submit(1.0, lambda: None)
        sim.run(until=0.25)
        busy = cpu.completed_busy_seconds()
        sim.run(until=0.75)
        assert cpu.utilization(busy, 0.25) == pytest.approx(1.0)
