"""Admission-control gate and the guard's actuator-seam entry points."""

import random
from ipaddress import IPv4Address

from repro.dns import LrsSimulator
from repro.experiments.testbed import ANS_ADDRESS, GuardTestbed
from repro.guard import AdmissionControl, random_key

#: keys are seeded like everything else: nothing here draws OS entropy
RNG = random.Random(2006)


def _quiet_bed():
    """A testbed whose guard never activates detection: traffic flows
    plainly, so the admission gate is the only thing standing in the way."""
    return GuardTestbed(ans="simulator", ans_mode="answer", activation_threshold=1e9)


class TestAdmissionGate:
    def test_engaged_gate_sheds_unverified_prefers_verified(self):
        bed = _quiet_bed()
        good = bed.add_client("good")
        bad = bed.add_client("bad")
        bed.guard.watch_sources = frozenset({int(bad.addresses[0])})
        # shed_backlog_fraction=0 makes the gate bite at any backlog,
        # so the test does not need to saturate the CPU first
        bed.guard.set_admission(
            AdmissionControl(engaged=True, shed_backlog_fraction=0.0)
        )
        bed.guard._mark_verified(int(good.addresses[0]))
        good_lrs = LrsSimulator(good, ANS_ADDRESS, workload="plain", concurrency=1)
        bad_lrs = LrsSimulator(bad, ANS_ADDRESS, workload="plain", concurrency=1)
        good_lrs.start()
        bad_lrs.start()
        bed.run(0.2)
        good_lrs.stop()
        bad_lrs.stop()
        assert good_lrs.stats.completed > 0
        assert bad_lrs.stats.completed == 0
        assert bed.guard.admission_shed > 0
        # every shed against the watched (legitimate) source was counted
        assert bed.guard.watched_rejects > 0
        assert bed.guard.stats()["admission_shed"] == bed.guard.admission_shed

    def test_disengaged_control_passes_everyone(self):
        bed = _quiet_bed()
        client = bed.add_client("lrs")
        bed.guard.set_admission(AdmissionControl(engaged=False))
        lrs = LrsSimulator(client, ANS_ADDRESS, workload="plain", concurrency=1)
        lrs.start()
        bed.run(0.2)
        lrs.stop()
        assert lrs.stats.completed > 0
        assert bed.guard.admission_shed == 0

    def test_verification_expires_after_ttl(self):
        bed = _quiet_bed()
        client = bed.add_client("lrs")
        bed.guard.set_admission(
            AdmissionControl(
                engaged=True, shed_backlog_fraction=0.0, verified_ttl=0.05
            )
        )
        bed.guard._mark_verified(int(client.addresses[0]))  # marked at t=0
        bed.run(0.1)  # ...which is stale by now
        lrs = LrsSimulator(client, ANS_ADDRESS, workload="plain", concurrency=1)
        lrs.start()
        bed.run(0.2)
        lrs.stop()
        assert lrs.stats.completed == 0
        assert bed.guard.admission_shed > 0

    def test_verified_cache_is_bounded(self):
        bed = _quiet_bed()
        bed.guard.set_admission(AdmissionControl())
        for i in range(9000):
            bed.guard._mark_verified(0x0A000000 + i)
        assert len(bed.guard._verified_sources) <= 8192

    def test_mark_verified_without_admission_is_a_noop(self):
        bed = _quiet_bed()
        bed.guard._mark_verified(int(IPv4Address("10.0.0.1")))
        assert bed.guard._verified_sources == {}


class TestActuatorEntryPoints:
    def test_set_policy_hot_switches(self):
        bed = GuardTestbed(guard_policy="dns")
        source = IPv4Address("10.0.0.1")
        assert bed.guard.policy_for(source) == "dns"
        bed.guard.set_policy("drop")
        assert bed.guard.policy_for(source) == "drop"

    def test_set_admission_none_clears_the_cache(self):
        bed = _quiet_bed()
        bed.guard.set_admission(AdmissionControl(engaged=True))
        bed.guard._mark_verified(int(IPv4Address("10.0.0.1")))
        assert bed.guard.stats()["verified_sources"] == 1
        bed.guard.set_admission(None)
        assert bed.guard.admission is None
        assert bed.guard._verified_sources == {}

    def test_rotate_cookie_key_advances_one_generation(self):
        bed = GuardTestbed()
        generation = bed.guard.cookies.generation
        bed.guard.rotate_cookie_key(random_key(RNG))
        assert bed.guard.cookies.generation == generation + 1

    def test_crash_clears_verified_sources(self):
        bed = _quiet_bed()
        bed.guard.set_admission(AdmissionControl(engaged=True))
        bed.guard._mark_verified(int(IPv4Address("10.0.0.1")))
        state = bed.guard.crash()
        assert bed.guard._verified_sources == {}
        bed.guard.restart(state)
