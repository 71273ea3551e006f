"""Watch the guard absorb a spoofing flood — through the observability layer.

One legitimate resolver works through the local guard (the modified-DNS
scheme) while a spoofing attacker floods the protected server.  Instead of
poking at component stats dicts afterwards, everything is recorded by an
installed Observability context:

* ``guard.decisions`` counters show forwards vs drops, per scheme/outcome;
* spans trace each legitimate interaction end-to-end (client leg, guard
  decision, ANS serve) over virtual time;
* a packet tap on the guard shows the first packets of the flood.

Run:  python examples/observe_attack.py
"""

from repro import ANS_ADDRESS, GuardTestbed, LrsSimulator, Observability, installed
from repro.attack import SpoofingAttacker

obs = Observability()
with installed(obs):
    bed = GuardTestbed(ans="simulator", ans_mode="answer")
    tap = obs.tap(bed.guard_node, protocol="udp", max_records=20)

    client = bed.add_client("resolver", via_local_guard=True)
    lrs = LrsSimulator(client, ANS_ADDRESS, workload="plain")
    attacker = SpoofingAttacker(
        bed.add_client("attacker"), ANS_ADDRESS, rate=5_000, carry_invalid_cookie=True
    )

    lrs.start()
    attacker.start()
    bed.run(0.5)

print(obs.report(title="spoofing flood, modified-DNS scheme"))

# the numbers behind the report are queryable too
decisions = {
    (dict(m.labels)["scheme"], dict(m.labels)["outcome"]): m.value
    for m in obs.registry.find("guard.decisions")
}
dropped = sum(v for (_, outcome), v in decisions.items() if outcome != "forward")
interactions = obs.spans.named("lrs.interaction")
completed = [s for s in interactions if s.attrs.get("completed")]

print()
print(f"guard decisions: {decisions}")
print(f"legitimate interactions completing despite the flood: "
      f"{len(completed)}/{len(interactions)}")

assert dropped > 0, "the flood never reached the guard"
assert completed, "legitimate traffic did not survive the flood"
assert len(tap.records) == 20
