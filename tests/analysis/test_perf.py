"""P-rules: hot-path inference and the cost checks."""

import functools
import textwrap
from pathlib import Path

import pytest

from repro.analysis import FAMILIES, analyze
from repro.analysis.parse import load_modules, module_dotted
from repro.analysis.perf.hotpath import compute_hot_paths

#: the perf family through the one kernel entry point
analyze_perf = functools.partial(analyze, families=("perf",))

REPO_ROOT = Path(__file__).resolve().parents[2]
REPO_SRC = REPO_ROOT / "src"


def write(tmp_path: Path, name: str, source: str) -> Path:
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def qualnames(hot_paths) -> set:
    return {qualname for (_path, qualname) in hot_paths.functions}


# -- hot-path inference -------------------------------------------------------


class TestHotPathInference:
    def test_schedule_callback_and_callees_become_hot(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Pump:
                def start(self):
                    self.sim.schedule(0.5, self._tick)

                def _tick(self):
                    self._drain()

                def _drain(self):
                    pass

            def offline():
                pass
            """,
        )
        hot = compute_hot_paths(load_modules([tmp_path]))
        assert "Pump._tick" in qualnames(hot)
        assert "Pump._drain" in qualnames(hot)
        # start() only schedules; nothing schedules *it*
        assert "Pump.start" not in qualnames(hot)
        assert "offline" not in qualnames(hot)
        tick = next(
            f for f in hot.functions.values() if f.decl.qualname == "Pump._tick"
        )
        drain = next(
            f for f in hot.functions.values() if f.decl.qualname == "Pump._drain"
        )
        assert tick.depth == 0 and tick.root == "Pump._tick"
        assert drain.depth == 1 and drain.root == "Pump._tick"
        assert tick.describe() == "hot path root Pump._tick"
        assert drain.describe() == "hot path via Pump._tick"

    def test_lambda_callback_marks_its_body_calls_hot(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Pump:
                def start(self):
                    self.sim.schedule(0.5, lambda: self._tick())

                def _tick(self):
                    pass
            """,
        )
        hot = compute_hot_paths(load_modules([tmp_path]))
        assert "Pump._tick" in qualnames(hot)

    def test_node_receive_is_always_hot(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Node:
                def receive(self, packet, link):
                    self.deliver(packet)

                def deliver(self, packet):
                    pass
            """,
        )
        hot = compute_hot_paths(load_modules([tmp_path]))
        assert "Node.receive" in qualnames(hot)
        assert "Node.deliver" in qualnames(hot)

    def test_cpu_submit_callback_is_a_root(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            class Server:
                def on_query(self, query):
                    self.cpu.submit(0.0001, self._serve, query)

                def _serve(self, query):
                    pass
            """,
        )
        hot = compute_hot_paths(load_modules([tmp_path]))
        assert "Server._serve" in qualnames(hot)

    def test_hub_names_do_not_drag_the_tree_in(self, tmp_path):
        # four foreign candidates for "send" — above the fan-out cap, so
        # the ambiguous call resolves to nothing
        write(
            tmp_path,
            "hub1.py",
            """
            class A:
                def send(self): pass
            class B:
                def send(self): pass
            """,
        )
        write(
            tmp_path,
            "hub2.py",
            """
            class C:
                def send(self): pass
            class D:
                def send(self): pass
            """,
        )
        write(
            tmp_path,
            "mod.py",
            """
            class Pump:
                def start(self):
                    self.sim.schedule(0.5, self._tick)

                def _tick(self):
                    send(self)
            """,
        )
        hot = compute_hot_paths(load_modules([tmp_path]))
        assert "Pump._tick" in qualnames(hot)
        assert not any(q.endswith(".send") for q in qualnames(hot))

    def test_module_dotted(self):
        assert module_dotted("src/repro/netsim/node.py") == "repro.netsim.node"
        assert module_dotted("src/repro/analysis/perf/__init__.py") == (
            "repro.analysis.perf"
        )
        assert module_dotted("/tmp/x/mod.py") == "mod"


# -- the cost checks on toy modules -------------------------------------------

HOT_PRELUDE = """\
class Handler:
    def start(self):
        self.sim.schedule(0.5, self._on_event)
"""


def toy_findings(tmp_path, body: str, rule: str):
    """Analyze ``Handler`` with the dedented ``body`` as extra class members.

    ``body`` is re-indented one level so its ``def``s become methods of the
    hot ``Handler`` class; anything that must stay at module level goes in
    through :func:`write` directly.
    """
    methods = textwrap.indent(textwrap.dedent(body), "    ")
    write(tmp_path, "mod.py", HOT_PRELUDE + methods)
    return analyze_perf([tmp_path], rule_ids=[rule])


class TestChecks:
    def test_p001_unslotted_instantiation(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            HOT_PRELUDE
            + """
    def _on_event(self):
        return Ticket()

class Ticket:
    def __init__(self):
        self.n = 0
""",
        )
        findings = analyze_perf([tmp_path], rule_ids=["P001"])
        assert [f.rule for f in findings] == ["P001"]
        assert "Ticket" in findings[0].message

    def test_p001_ignores_slotted_and_exception_classes(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            HOT_PRELUDE
            + """
    def _on_event(self):
        Slotted()
        Frozen()
        raise Boom()

class Slotted:
    __slots__ = ("n",)

import dataclasses

@dataclasses.dataclass(slots=True)
class Frozen:
    n: int = 0

class Boom(Exception):
    pass
""",
        )
        assert analyze_perf([tmp_path], rule_ids=["P001"]) == []

    def test_p002_reencoding(self, tmp_path):
        findings = toy_findings(
            tmp_path,
            """
                def _on_event(self, msg):
                    return len(msg.encode()) + msg.wire_size()
            """,
            "P002",
        )
        assert [f.rule for f in findings] == ["P002", "P002"]

    def test_p002_inline_allow_suppresses(self, tmp_path):
        findings = toy_findings(
            tmp_path,
            """
                def _on_event(self, msg):
                    return msg.encode()  # repro: allow[P002] template built once
            """,
            "P002",
        )
        assert findings == []

    def test_p003_lambda_and_partial_callbacks(self, tmp_path):
        findings = toy_findings(
            tmp_path,
            """
                def _on_event(self):
                    self.sim.schedule(0.1, lambda: self.poke())
                    self.sim.schedule(0.1, partial(self.poke, 1))

                def poke(self, n=0):
                    pass
            """,
            "P003",
        )
        assert [f.rule for f in findings] == ["P003", "P003"]
        assert "lambda" in findings[0].message
        assert "partial" in findings[1].message

    def test_p004_formatting_fires_outside_error_paths_only(self, tmp_path):
        findings = toy_findings(
            tmp_path,
            """
                def _on_event(self, packet):
                    label = f"pkt {packet}"
                    print(label)
                    self.log.debug("got %s", packet)
                    if packet is None:
                        raise ValueError(f"bad packet {packet}")
            """,
            "P004",
        )
        # three findings: the f-string, print, and log.debug — the f-string
        # inside the raise is an error path and must NOT be a fourth
        assert [f.rule for f in findings] == ["P004", "P004", "P004"]

    def test_p005_scans(self, tmp_path):
        findings = toy_findings(
            tmp_path,
            """
                def __init__(self):
                    self.peers = []
                    self.table = {}

                def _on_event(self, src):
                    if src in self.peers:      # list: O(n)
                        return True
                    if src in self.table:      # dict: fine
                        return True
                    return sorted(self.peers)
            """,
            "P005",
        )
        assert [f.rule for f in findings] == ["P005", "P005"]
        assert "membership test over .peers" in findings[0].message
        assert "sorted()" in findings[1].message

    def test_p005_whole_table_min_max_and_rebuild(self, tmp_path):
        findings = toy_findings(
            tmp_path,
            """
                def __init__(self):
                    self.table = {}

                def _on_event(self, now):
                    level = min(self.burst, self.tokens)    # two scalars: fine
                    victim = min(self.table, key=self.table.get)
                    worst = max(self.table.values())
                    live = [k for k in self.table if k]     # read-only pass: fine
                    self.table = {
                        k: v for k, v in self.table.items() if v > now
                    }
                    return level, victim, worst, live
            """,
            "P005",
        )
        assert [f.rule for f in findings] == ["P005", "P005", "P005"]
        assert "min() over .table" in findings[0].message
        assert "max() over .table" in findings[1].message
        assert "rebuilds .table" in findings[2].message

    def test_p006_constant_delay_fires_computed_delay_does_not(self, tmp_path):
        findings = toy_findings(
            tmp_path,
            """
                def _on_event(self):
                    self.sim.schedule(0.001, self.poke)
                    self.sim.schedule(self.jitter(), self.poke)

                def poke(self):
                    pass

                def jitter(self):
                    return 0.0
            """,
            "P006",
        )
        # the prelude's start() is not hot, so only _on_event's constant
        # push fires; the jitter() delay is call-shaped and exempt
        assert len(findings) == 1
        assert findings[0].rule == "P006"

    def test_cold_functions_are_never_checked(self, tmp_path):
        write(
            tmp_path,
            "mod.py",
            """
            def cold(msg):
                print(f"cold {msg.encode()}")
            """,
        )
        assert analyze_perf([tmp_path]) == []

    def test_unknown_rule_id_raises(self, tmp_path):
        with pytest.raises(KeyError):
            analyze_perf([tmp_path], rule_ids=["P999"])

    def test_registry_is_consistent(self):
        from repro.analysis.perf.rules import PERF_CHECKS

        rules = FAMILIES["perf"].rules
        assert {rule.id for rule in rules} == set(PERF_CHECKS)
        assert all(rule.family == "perf" for rule in rules)


# -- seeded-mutation acceptance tests against repo sources --------------------


def mutate(tmp_path, relative: str, old: str, new: str) -> Path:
    """Copy one repo source file into tmp_path with ``old`` -> ``new``."""
    original = (REPO_SRC / relative).read_text(encoding="utf-8")
    mutated = original.replace(old, new)
    assert mutated != original, f"mutation anchor not found in {relative}"
    return write(tmp_path, Path(relative).name, mutated)


class TestAcceptanceMutations:
    def test_repo_clean_through_cli_with_baseline(self, capsys):
        from repro.analysis.cli import main

        assert (
            main(
                [
                    "--perf",
                    "--baseline",
                    "scripts/analysis_baseline.json",
                    "src",
                ]
            )
            == 0
        )

    def test_removing_interaction_slots_fires_p001(self, tmp_path):
        mutate(
            tmp_path,
            "repro/dns/loadgen.py",
            '__slots__ = (\n        "lrs",',
            '_not_slots = (\n        "lrs",',
        )
        findings = analyze_perf([tmp_path], rule_ids=["P001"])
        assert findings, "unslotted per-event _Interaction must fire P001"
        assert any("_Interaction" in f.message for f in findings)

    def test_inlining_fresh_encode_in_serve_fires_p002(self, tmp_path):
        mutate(
            tmp_path,
            "repro/dns/loadgen.py",
            "self._socket.send(self.respond(query), src, sport, src=dst, span=span)",
            # a copy is never frozen: sizing it is a fresh encode per reply
            "self._socket.send(self.respond(query), src, sport, src=dst,"
            " size=self.respond(query).copy().wire_size(), span=span)",
        )
        findings = analyze_perf([tmp_path], rule_ids=["P002"])
        assert [f.rule for f in findings] == ["P002"]
        assert "AnsSimulator._serve" in findings[0].message

    def test_reintroducing_tcp_deadline_lambda_fires_p003(self, tmp_path):
        mutate(
            tmp_path,
            "repro/dns/recursive.py",
            "self.resolver.timeout * 3, self._tcp_fallback_fail, conn",
            "self.resolver.timeout * 3,"
            " lambda: self._tcp_fallback_fail(conn)",
        )
        findings = analyze_perf([tmp_path], rule_ids=["P003"])
        assert [f.rule for f in findings] == ["P003"]
        assert "_retry_over_tcp" in findings[0].message

    def test_injecting_print_into_serve_fires_p004(self, tmp_path):
        mutate(
            tmp_path,
            "repro/dns/loadgen.py",
            "self.requests_served += 1",
            'self.requests_served += 1\n        print(f"served {query}")',
        )
        findings = analyze_perf([tmp_path], rule_ids=["P004"])
        assert findings
        assert all(f.rule == "P004" for f in findings)
        assert any("AnsSimulator._serve" in f.message for f in findings)

    def test_reverting_owns_to_list_scan_fires_p005(self, tmp_path):
        assert analyze_perf(
            [REPO_SRC / "repro" / "netsim" / "node.py"], rule_ids=["P005"]
        ) == []
        mutate(
            tmp_path,
            "repro/netsim/node.py",
            "if packet.dst._ip in self._address_set:",
            "if packet.dst in self.addresses:",
        )
        findings = analyze_perf([tmp_path], rule_ids=["P005"])
        assert [f.rule for f in findings] == ["P005"]
        assert "Node.receive" in findings[0].message

    def test_reverting_tracker_eviction_to_min_scan_fires_p005(self, tmp_path):
        # a driver module makes the tracker per-packet code, as the guard
        # pipeline does through UnverifiedResponseLimiter.allow
        write(
            tmp_path,
            "driver.py",
            """
            class Guard:
                def start(self):
                    self.sim.schedule(0.1, self._on_packet)

                def _on_packet(self):
                    self.tracker.observe(self.source)
            """,
        )
        ratelimit = REPO_SRC / "repro" / "guard" / "core" / "ratelimit.py"
        write(tmp_path, "ratelimit.py", ratelimit.read_text(encoding="utf-8"))
        assert analyze_perf([tmp_path], rule_ids=["P005"]) == []
        mutate(
            tmp_path,
            "repro/guard/core/ratelimit.py",
            """        while True:
            floor, seq, victim, entry = heap[0]
            if entry.count == floor:
                break
            heapq.heapreplace(heap, (entry.count, seq, victim, entry))
        del self._counts[victim]
""",
            """        victim = min(self._counts, key=lambda ip: self._counts[ip].count)
        floor = self._counts.pop(victim).count
""",
        )
        findings = analyze_perf([tmp_path], rule_ids=["P005"])
        assert [f.rule for f in findings] == ["P005"]
        assert "min() over ._counts" in findings[0].message
        assert "TopRequesterTracker.observe" in findings[0].message

    def test_reverting_time_wait_purge_to_rebuild_fires_p005(self, tmp_path):
        assert analyze_perf(
            [REPO_SRC / "repro" / "netsim" / "tcp.py"], rule_ids=["P005"]
        ) == []
        mutate(
            tmp_path,
            "repro/netsim/tcp.py",
            """                while time_wait and next(iter(time_wait.values())) <= now:
                    time_wait.popitem(last=False)
""",
            """                self._time_wait = {
                    key: until for key, until in self._time_wait.items() if until > now
                }
""",
        )
        findings = analyze_perf([tmp_path], rule_ids=["P005"])
        assert [f.rule for f in findings] == ["P005"]
        assert "rebuilds ._time_wait" in findings[0].message
        assert "TcpStack._forget" in findings[0].message

    def test_p006_flags_batch_loops_and_spares_computed_delays(self, tmp_path):
        # the attack batch loop is real accepted debt (scripts/
        # analysis_baseline.json): the raw analyzer must keep flagging it
        findings = analyze_perf(
            [REPO_SRC / "repro" / "attack" / "spoof.py"], rule_ids=["P006"]
        )
        assert any(
            "_emit_batch" in f.message and f.rule == "P006" for f in findings
        )
        # routing the delay through a call makes it non-constant-shaped,
        # which is exactly what the calendar-queue rewrite will not absorb
        mutate(
            tmp_path,
            "repro/attack/spoof.py",
            "sim.schedule_at(now + i * spacing, self._send_one, packet)",
            "sim.schedule_at(self._jitter(now + i * spacing),"
            " self._send_one, packet)",
        )
        mutated = analyze_perf([tmp_path], rule_ids=["P006"])
        assert len(mutated) < len(findings)
