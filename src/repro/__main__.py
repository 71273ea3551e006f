"""Command-line interface: ``python -m repro <command>``.

Commands regenerate the paper's tables and figures or run a quick demo.
Each accepts ``--fast`` for a reduced (but representative) configuration,
``--seed`` for reproducibility, and three mutually exclusive analysis
modes that replace the normal output: ``--sanitize`` (run twice, compare
event-trace hashes), ``--races`` (run under the tie-group interference
monitor, report R003/R004 simultaneity races), ``--explore N`` (run
N extra times with seeded permutations of conflicting tie groups and
assert canonical-trace invariance), and ``--memory`` (run under the
state-bounds high-water monitor and fail if any ``__state_bounds__``
declaration is exceeded, M006).
"""

from __future__ import annotations

import argparse
import sys


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import ANS_ADDRESS, GuardTestbed, LrsSimulator
    from repro.attack import SpoofingAttacker

    bed = GuardTestbed(seed=args.seed, ans="simulator", ans_mode="answer")
    resolver_node = bed.add_client("resolver", via_local_guard=True)
    resolver = LrsSimulator(resolver_node, ANS_ADDRESS, workload="plain")
    attacker = SpoofingAttacker(
        bed.add_client("attacker"), ANS_ADDRESS, rate=50_000, carry_invalid_cookie=True
    )
    resolver.start()
    attacker.start()
    bed.run(1.0)
    print("One simulated second under a 50K req/s spoofed flood:")
    print(f"  legitimate answers: {resolver.stats.completed}")
    print(f"  forged requests dropped: {bed.guard.invalid_drops}")
    print(f"  requests reaching the ANS: {bed.ans.requests_served}")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments.table1 import format_table1, run_table1

    print(format_table1(run_table1(measure_latency=not args.fast, seed=args.seed)))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.experiments.table2 import format_table2, run_table2

    print(format_table2(run_table2(seed=args.seed)))
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from repro.experiments.table3 import format_table3, run_table3

    print(format_table3(run_table3(seed=args.seed, fast=args.fast)))
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    from repro.experiments.fig5 import format_fig5, run_fig5

    points = run_fig5(seed=args.seed, fast=args.fast)
    print(format_fig5(points))
    if args.plot:
        from repro.experiments.plotting import plot_fig5

        print()
        print(plot_fig5(points))
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    from repro.experiments.fig6 import format_fig6, run_fig6

    points = run_fig6(
        seed=args.seed, fast=args.fast, hybrid=getattr(args, "hybrid", False)
    )
    print(format_fig6(points))
    if args.plot:
        from repro.experiments.plotting import plot_fig6

        print()
        print(plot_fig6(points))
    return 0


def _cmd_fig7(args: argparse.Namespace) -> int:
    from repro.experiments.fig7 import format_fig7, run_fig7

    series_a, series_b = run_fig7(seed=args.seed, fast=args.fast)
    print(format_fig7(series_a, series_b))
    if args.plot:
        from repro.experiments.plotting import plot_fig7

        print()
        print(plot_fig7(series_a, series_b))
    return 0


def _cmd_attacks(args: argparse.Namespace) -> int:
    from repro.experiments.attacks import (
        format_attack_report,
        run_amplification,
        run_cookie2_guessing,
        run_probing_attack,
        run_zombie_flood,
    )
    from repro.guard import UnverifiedResponseLimiter

    unguarded = run_amplification(guarded=False, seed=args.seed)
    guarded = run_amplification(
        guarded=True,
        seed=args.seed,
        rl1=UnverifiedResponseLimiter(per_source_rate=100.0, per_source_burst=100.0),
    )
    guessing = run_cookie2_guessing(seed=args.seed)
    zombie = run_zombie_flood(seed=args.seed)
    if args.fast:
        print(format_attack_report(unguarded, guarded, guessing, zombie))
    else:
        probing_open = run_probing_attack(rl2_enabled=False, seed=args.seed)
        probing_limited = run_probing_attack(rl2_enabled=True, seed=args.seed)
        print(
            format_attack_report(
                unguarded, guarded, guessing, zombie, probing_open, probing_limited
            )
        )
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    from repro.experiments.ablation import (
        format_ablation,
        run_hcf_ablation,
        run_ingress_deployment,
        run_rotation_ablation,
        run_scheme_comparison,
    )

    ingress = None
    if not args.fast:
        ingress = [
            run_ingress_deployment(fraction, seed=args.seed)
            for fraction in (0.0, 0.5, 0.9, 1.0)
        ]
    print(
        format_ablation(
            run_hcf_ablation(seed=args.seed),
            run_rotation_ablation(),
            run_scheme_comparison(seed=args.seed),
            ingress,
        )
    )
    return 0


def _cmd_containment(args: argparse.Namespace) -> int:
    from repro.experiments.containment import format_containment, run_containment

    kwargs = {"attack_duration": 0.5} if args.fast else {}
    print(format_containment(run_containment(seed=args.seed, **kwargs)))
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.experiments.sensitivity import format_sensitivity, run_sensitivity

    print(format_sensitivity(run_sensitivity()))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Assemble benchmarks/results/*.txt into one REPORT.md."""
    import pathlib

    results_dir = pathlib.Path("benchmarks/results")
    if not results_dir.is_dir():
        print("no benchmarks/results directory — run `pytest benchmarks/` first")
        return 1
    sections = []
    for path in sorted(results_dir.glob("*.txt")):
        sections.append(f"## {path.stem}\n\n```\n{path.read_text().rstrip()}\n```\n")
    report = pathlib.Path("REPORT.md")
    report.write_text(
        "# Reproduced results\n\n"
        "Generated from `benchmarks/results/` (run `pytest benchmarks/ "
        "--benchmark-only` to refresh).\n\n" + "\n".join(sections)
    )
    print(f"wrote {report} ({len(sections)} sections)")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    if getattr(args, "shards", 1) != 1 or getattr(args, "manifest", None):
        # route through the farm: same planner, same cells, same digests
        from repro.farm import run_farm
        from repro.farm.runner import main_summary

        result = run_farm(
            "faults",
            seed=args.seed,
            fast=args.fast,
            shards=args.shards,
            manifest_path=args.manifest,
            resume=args.resume,
        )
        main_summary(result)
        return 0 if not result.failed else 1
    from repro.experiments.faults import format_faults, run_faults

    print(format_faults(run_faults(seed=args.seed, fast=args.fast)))
    return 0


def _cmd_farm(args: argparse.Namespace) -> int:
    from repro.farm import matrix_names, run_farm, write_bench_farm
    from repro.farm.runner import main_summary

    if args.list:
        from repro.farm import MATRICES

        for name in matrix_names():
            print(f"{name:<10} {MATRICES[name].description}")
        return 0
    if args.bench:
        # serial vs sharded wall-clock on the same matrix, plus the
        # digest-equality witness, appended to the BENCH trajectory
        serial = run_farm(args.matrix, seed=args.seed, fast=args.fast, shards=1)
        sharded = run_farm(
            args.matrix, seed=args.seed, fast=args.fast, shards=max(2, args.shards)
        )
        equal = serial.manifest.digest() == sharded.manifest.digest()
        doc = write_bench_farm(
            args.bench,
            matrix=args.matrix,
            cells=len(serial.cells),
            serial_seconds=serial.wall_seconds,
            sharded_seconds=sharded.wall_seconds,
            shards=sharded.shards,
            digests_equal=equal,
        )
        entry = doc["trajectory"][-1]
        print(
            f"{args.matrix}: {entry['cells']} cells — serial "
            f"{entry['serial_seconds']}s vs {entry['shards']}-shard "
            f"{entry['sharded_seconds']}s (speedup {entry['speedup']}x, "
            f"digests {'equal' if equal else 'DIVERGED'})"
        )
        print(f"wrote {args.bench}")
        return 0 if equal else 1
    result = run_farm(
        args.matrix,
        seed=args.seed,
        fast=args.fast,
        shards=args.shards,
        manifest_path=args.manifest,
        resume=args.resume,
        cell_timeout=args.cell_timeout,
        stop_after=args.stop_after,
    )
    main_summary(result)
    return 0 if not result.failed else 1


def _cmd_control(args: argparse.Namespace) -> int:
    from repro.experiments.control import (
        format_control,
        run_control,
        write_bench_control,
    )

    if getattr(args, "static_only", False):
        # controller-off smoke: only the static cells run — used by
        # check.sh to sanitize a matrix in which no controller exists
        result = run_control(
            seed=args.seed, fast=args.fast, schemes=("modified", "ns_name", "tcp")
        )
    else:
        result = run_control(seed=args.seed, fast=args.fast)
    print(format_control(result))
    if getattr(args, "bench", None):
        write_bench_control(result, args.bench)
        print(f"wrote {args.bench}")
    return 0


def _cmd_fluid(args: argparse.Namespace) -> int:
    from repro.experiments.fluid import format_predictions

    print(format_predictions())
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """Showcase the observability subsystem on a short guarded run."""
    from repro import ANS_ADDRESS, GuardTestbed, LrsSimulator
    from repro.attack import SpoofingAttacker
    from repro.obs import Observability, installed

    obs = Observability(profile=True)
    with installed(obs):
        bed = GuardTestbed(seed=args.seed, ans="simulator", ans_mode="answer")
        resolver_node = bed.add_client("resolver", via_local_guard=True)
        resolver = LrsSimulator(resolver_node, ANS_ADDRESS, workload="plain")
        attacker = SpoofingAttacker(
            bed.add_client("attacker"),
            ANS_ADDRESS,
            rate=5_000,
            carry_invalid_cookie=True,
        )
        obs.tap(bed.guard_node, protocol="udp", max_records=40)
        resolver.start()
        attacker.start()
        bed.run(0.25 if args.fast else 1.0)
    obs.collect()
    print(obs.report())
    if args.obs is not None:
        for path in obs.write(args.obs):
            print(f"wrote {path}")
    if getattr(args, "bench_profile", None):
        from repro.obs import write_bench_profile

        write_bench_profile(obs.profiler, args.bench_profile)
        print(f"wrote {args.bench_profile}")
    return 0


def _run_with_obs(handler, args: argparse.Namespace) -> int:
    """Run ``handler`` with a process-wide Observability installed, then
    dump whatever it gathered (run report + exports to ``--obs DIR``)."""
    from repro.obs import Observability, installed

    obs = Observability(profile=args.profile)
    with installed(obs):
        code = handler(args)
    obs.collect()
    if args.obs is not None:
        for path in obs.write(args.obs):
            print(f"wrote {path}", file=sys.stderr)
    elif obs.profiler is not None:
        print(obs.profiler.report(), file=sys.stderr)
    return code


_COMMANDS = {
    "demo": (_cmd_demo, "Run the quickstart demo: a guarded ANS under a spoofed flood"),
    "table1": (_cmd_table1, "Table I: scheme comparison"),
    "table2": (_cmd_table2, "Table II: request latency per scheme"),
    "table3": (_cmd_table3, "Table III: guard throughput per scheme"),
    "fig5": (_cmd_fig5, "Figure 5: BIND under attack, guard on/off"),
    "fig6": (_cmd_fig6, "Figure 6: guard throughput/CPU under attack"),
    "fig7": (_cmd_fig7, "Figure 7: TCP proxy throughput"),
    "attacks": (_cmd_attacks, "Attack analysis (amplification, guessing, zombies)"),
    "ablation": (_cmd_ablation, "Ablations: HCF baseline, rotation, RFC 7873"),
    "containment": (
        _cmd_containment,
        "Containment timeline: throughput as an attack starts mid-run",
    ),
    "faults": (
        _cmd_faults,
        "Fault injection: blackout/flap/loss/chaos/restart/failover per scheme",
    ),
    "farm": (
        _cmd_farm,
        "Sharded scenario farm: run a matrix across worker processes with a "
        "resumable manifest and deterministic merge",
    ),
    "control": (
        _cmd_control,
        "Adaptive overload control vs static schemes across attacks × faults",
    ),
    "fluid": (_cmd_fluid, "Analytical model predictions"),
    "report": (_cmd_report, "Assemble benchmarks/results into REPORT.md"),
    "sensitivity": (
        _cmd_sensitivity,
        "Sensitivity of qualitative claims to the CPU cost model",
    ),
    "obs": (
        _cmd_obs,
        "Observability showcase: metrics, spans, and a profile of a short run",
    ),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="DNS guard (ICDCS 2006) reproduction: experiments and demos.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--seed", type=int, default=0, help="simulation seed")
        sub.add_argument(
            "--fast", action="store_true", help="reduced (quicker) configuration"
        )
        sub.add_argument(
            "--plot", action="store_true", help="also render an ASCII chart"
        )
        sub.add_argument(
            "--sanitize",
            action="store_true",
            help="run the command twice under the determinism sanitizer and "
            "compare event-trace hashes instead of printing results",
        )
        sub.add_argument(
            "--races",
            action="store_true",
            help="run the command under the tie-group interference monitor "
            "(R003/R004) and report simultaneity races instead of results",
        )
        sub.add_argument(
            "--explore",
            metavar="N",
            type=int,
            default=None,
            help="re-run the command N extra times with seeded permutations "
            "of conflicting tie groups and assert trace invariance",
        )
        sub.add_argument(
            "--memory",
            action="store_true",
            help="run the command under the state-bounds high-water monitor "
            "and fail if any __state_bounds__ declaration is exceeded (M006)",
        )
        sub.add_argument(
            "--obs",
            metavar="DIR",
            default=None,
            help="gather observability data (metrics, spans, run report) "
            "and export it into DIR",
        )
        sub.add_argument(
            "--profile",
            action="store_true",
            help="also profile the event loop (wall-clock, per-handler)",
        )
        if name == "obs":
            sub.add_argument(
                "--bench-profile",
                metavar="PATH",
                default=None,
                help="write the event-loop profile as a BENCH_*.json document "
                "(events/sec trajectory; e.g. scripts/BENCH_profile.json)",
            )
        if name == "fig6":
            sub.add_argument(
                "--hybrid",
                action="store_true",
                help="use the hybrid fluid/packet client mode: the bulk "
                "legitimate population runs as a fluid (10⁶ modeled stub "
                "clients) with a packet-level foreground cohort",
            )
        if name == "faults":
            sub.add_argument(
                "--shards",
                type=int,
                default=1,
                help="run the matrix across N worker processes via the farm",
            )
            sub.add_argument(
                "--manifest",
                metavar="PATH",
                default=None,
                help="persist the farm manifest (per-cell status/digests) here",
            )
            sub.add_argument(
                "--resume",
                action="store_true",
                help="resume from --manifest, skipping cells already done",
            )
        if name == "farm":
            sub.add_argument(
                "--matrix",
                default="faults",
                help="which scenario matrix to run (see --list)",
            )
            sub.add_argument(
                "--shards",
                type=int,
                default=1,
                help="number of worker processes (1 = in-process serial)",
            )
            sub.add_argument(
                "--manifest",
                metavar="PATH",
                default=None,
                help="persist the resumable manifest (per-cell status, result "
                "digest, trace hash) to PATH",
            )
            sub.add_argument(
                "--resume",
                action="store_true",
                help="resume from --manifest, skipping cells already done",
            )
            sub.add_argument(
                "--stop-after",
                metavar="N",
                type=int,
                default=None,
                help="run at most N pending cells then stop (deterministic "
                "stand-in for a killed run; finish with --resume)",
            )
            sub.add_argument(
                "--cell-timeout",
                metavar="SECONDS",
                type=float,
                default=300.0,
                help="per-cell wall-clock timeout in sharded runs "
                "(default 300)",
            )
            sub.add_argument(
                "--bench",
                metavar="PATH",
                default=None,
                help="time serial vs sharded execution of the matrix and "
                "append a dated entry to this BENCH_farm.json trajectory",
            )
            sub.add_argument(
                "--list",
                action="store_true",
                help="list the registered matrices and exit",
            )
        if name == "control":
            sub.add_argument(
                "--bench",
                metavar="PATH",
                default=None,
                help="append this run's headline numbers to a dated "
                "BENCH_control.json trajectory",
            )
            sub.add_argument(
                "--static-only",
                action="store_true",
                help="run only the static-scheme cells (no controller "
                "constructed) — the sanitize-parity smoke configuration",
            )
    args = parser.parse_args(argv)
    handler, _ = _COMMANDS[args.command]

    def invoke() -> int:
        # the `obs` command manages its own Observability instance
        if args.command != "obs" and (args.obs is not None or args.profile):
            return _run_with_obs(handler, args)
        return handler(args)

    modes = [
        f"--{name}"
        for name in ("sanitize", "races", "explore", "memory")
        if getattr(args, name) not in (None, False)
    ]
    if len(modes) > 1:
        parser.error(f"{' and '.join(modes)} are mutually exclusive")
    if args.command == "farm" and modes:
        # farm cells already run under per-cell trace capture (the manifest's
        # trace hashes); nesting a second process-global collector is invalid
        parser.error(
            f"{modes[0]} is not supported for `farm` — per-cell trace hashes "
            "in the manifest are the farm's determinism witness"
        )
    if args.command == "faults" and modes and (args.shards != 1 or args.manifest):
        parser.error(f"{modes[0]} cannot be combined with --shards/--manifest")

    if modes:
        from repro.analysis.modes import run_mode

        report = run_mode(modes[0].removeprefix("--"), invoke, args)
        print(report.summary())
        return 0 if report.ok else 1
    return invoke()


if __name__ == "__main__":
    sys.exit(main())
