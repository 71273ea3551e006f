"""The load-bearing invariant: observability must not perturb the trace.

Each scenario runs twice — bare, and under an installed Observability
(one test also attaches a packet tap) — and the full event-trace digests
must be bit-identical.  Spans, counters and taps may only *watch* the
simulation.
"""

from repro.analysis.sanitizer import capture_traces
from repro.dns import LrsSimulator
from repro.experiments.testbed import ANS_ADDRESS, GuardTestbed
from repro.obs import Observability, installed


def _modified_scheme_under_attack() -> None:
    from repro.attack import SpoofingAttacker

    bed = GuardTestbed(seed=3, ans="simulator", ans_mode="answer")
    client = bed.add_client("lrs", via_local_guard=True)
    lrs = LrsSimulator(client, ANS_ADDRESS, workload="plain")
    attacker = SpoofingAttacker(
        bed.add_client("attacker"), ANS_ADDRESS, rate=2_000, carry_invalid_cookie=True
    )
    lrs.start()
    attacker.start()
    bed.run(0.1)


def _tcp_fallback_scheme() -> None:
    bed = GuardTestbed(seed=5, ans="simulator", ans_mode="answer", guard_policy="tcp")
    client = bed.add_client("lrs")
    lrs = LrsSimulator(client, ANS_ADDRESS, workload="plain")
    lrs.start()
    bed.run(0.1)
    lrs.stop()


def _faulted_run() -> None:
    from repro.faults import FaultPlan, LinkDown

    bed = GuardTestbed(seed=7, ans="simulator", ans_mode="referral")
    client = bed.add_client("lrs")
    lrs = LrsSimulator(client, ANS_ADDRESS, workload="referral")
    plan = FaultPlan()
    plan.add(0.02, LinkDown(bed.ans_link, duration=0.02))
    plan.schedule(bed.sim)
    lrs.start()
    bed.run(0.1)
    lrs.stop()


def _digest(scenario, *, observed: bool) -> str:
    with capture_traces() as collector:
        if observed:
            obs = Observability()
            with installed(obs):
                scenario()
            obs.collect()
            assert len(obs.registry) > 0  # the run was actually observed
        else:
            scenario()
    return collector.combined_hexdigest()


class TestSanitizeParity:
    def test_modified_scheme_trace_identical_with_obs(self):
        assert _digest(_modified_scheme_under_attack, observed=False) == _digest(
            _modified_scheme_under_attack, observed=True
        )

    def test_tcp_fallback_trace_identical_with_obs(self):
        assert _digest(_tcp_fallback_scheme, observed=False) == _digest(
            _tcp_fallback_scheme, observed=True
        )

    def test_faulted_trace_identical_with_obs(self):
        assert _digest(_faulted_run, observed=False) == _digest(
            _faulted_run, observed=True
        )

    def test_packet_tap_does_not_change_trace(self):
        def tapped() -> None:
            obs = Observability()
            with installed(obs):
                bed = GuardTestbed(seed=5, ans="simulator", ans_mode="answer")
                obs.tap([bed.guard_node, bed.ans_node], protocol="udp", max_records=10)
                client = bed.add_client("lrs")
                lrs = LrsSimulator(client, ANS_ADDRESS, workload="nonreferral")
                lrs.start()
                bed.run(0.1)

        def bare() -> None:
            bed = GuardTestbed(seed=5, ans="simulator", ans_mode="answer")
            client = bed.add_client("lrs")
            lrs = LrsSimulator(client, ANS_ADDRESS, workload="nonreferral")
            lrs.start()
            bed.run(0.1)

        with capture_traces() as a:
            bare()
        with capture_traces() as b:
            tapped()
        assert a.combined_hexdigest() == b.combined_hexdigest()
