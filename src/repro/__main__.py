"""Command-line interface: ``python -m repro <command>``.

Every command is one row of :data:`ARTEFACTS`: its name and help, the
flags it reads (the parser accepts a flag only where it is read), and how
to produce it — lazily-resolved ``run`` / ``render`` / ``plot`` references
into :mod:`repro.experiments`, or a ``handler`` for the few commands with
bespoke control flow.  ``main()`` builds the parser from the table and
dispatches.

A command that runs a simulation also accepts two mutually exclusive
analysis modes that replace its normal output — ``--sanitize`` (run twice,
compare event-trace hashes) and ``--races`` (tie-group interference monitor,
R003/R004) — plus ``--obs DIR``.
"""

from __future__ import annotations

import argparse
import dataclasses
import pkgutil
import sys
from typing import Callable


def _switch(name: str, help: str) -> tuple[str, dict]:
    return name, {"action": "store_true", "help": help}


def _option(name: str, metavar: str | None, help: str, **kwargs) -> tuple[str, dict]:
    return name, {"metavar": metavar, "default": None, "help": help, **kwargs}


SEED = _option("--seed", None, "simulation seed", type=int, default=0)
FAST = _switch("--fast", "reduced (quicker) configuration")
PLOT = _switch("--plot", "also render an ASCII chart")
MODES = (
    _switch("--sanitize", "run the command twice under the determinism sanitizer and "
            "compare event-trace hashes instead of printing results"),
    _switch("--races", "run the command under the tie-group interference monitor "
            "(R003/R004) and report simultaneity races instead of results"),
)
OBS = _option("--obs", "DIR", "gather observability data (metrics, spans, run report) "
              "and export it into DIR")
#: What every command that runs a simulation reads.
SIM = (SEED, *MODES, OBS)
#: Farm execution of a matrix: sharding, the resumable manifest, the matrix.
FARM_FLAGS = (
    _option("--shards", None, "run the matrix across N farm worker processes "
            "(1 = in-process serial)", type=int, default=1),
    _option("--manifest", "PATH", "persist the resumable farm manifest (per-cell status, "
            "result digest, trace hash) to PATH"),
    _switch("--resume", "resume from --manifest, skipping cells already done"),
    _option("--matrix", None, "which scenario matrix to run (see --list)", default="faults"),
    _option("--stop-after", "N", "run at most N pending cells then stop (deterministic "
            "stand-in for a killed run; finish with --resume)", type=int),
    _option("--cell-timeout", "SECONDS", "per-cell wall-clock timeout in sharded runs "
            "(default 300)", type=float, default=300.0),
    _switch("--list", "list the registered matrices and exit"),
)
STATIC_ONLY = _switch("--static-only", "run only the static-scheme cells (no controller "
                      "constructed) — the sanitize-parity smoke configuration")
REPORT_SEED = _option("--seed", None, "run every artefact at this seed (default: the "
                      "ledger's configuration — seed 0, `ablation` seed 7)", type=int)

#: The flags forwarded to a row's ``run`` (those of them the row declares).
RUN_ARGS = ("seed", "fast", "static_only")


@dataclasses.dataclass(frozen=True)
class Artefact:
    """One ``python -m repro`` command.

    ``run`` / ``render`` / ``plot`` are ``"module:attr"`` references under
    :mod:`repro.experiments`, imported on first use.  ``run`` is called with
    the row's :data:`RUN_ARGS` flags as keywords; its result (a tuple is
    splatted) is the argument list of ``render`` and ``plot``.  ``handler``
    replaces that flow for commands that need their own.
    """

    name: str
    help: str
    flags: tuple = ()
    run: str | None = None
    render: str | None = None
    plot: str | None = None
    handler: Callable[[Artefact, argparse.Namespace], int] | None = None


def _resolve(ref: str):
    return pkgutil.resolve_name("repro.experiments." + ref)


def _produce(row: Artefact, kwargs: dict) -> tuple:
    """The row's ``run`` result as the argument list of its ``render``."""
    result = _resolve(row.run)(**kwargs)
    return result if isinstance(result, tuple) else (result,)


def _run_artefact(row: Artefact, args: argparse.Namespace) -> int:
    result = _produce(row, {k: v for k, v in vars(args).items() if k in RUN_ARGS})
    print(_resolve(row.render)(*result))
    if row.plot is not None and args.plot:
        print()
        print(_resolve(row.plot)(*result))
    return 0


def _farm(row: Artefact, args: argparse.Namespace) -> int:
    from repro import farm
    from repro.farm.runner import main_summary

    if args.list:
        for name in farm.matrix_names():
            print(f"{name:<10} {farm.MATRICES[name].description}")
        return 0
    result = farm.run_farm(
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


def _obs(row: Artefact, args: argparse.Namespace) -> int:
    """Showcase the observability subsystem on a short guarded run."""
    from repro.experiments.demo import run_observed_flood

    obs = run_observed_flood(args.seed, fast=args.fast)
    print(obs.report())
    if args.obs is not None:
        for path in obs.write(args.obs):
            print(f"wrote {path}")
    return 0


def _report(row: Artefact, args: argparse.Namespace) -> int:
    """Run every ledger artefact once and judge its cells against the paper's
    numbers.  Stdout is REPORT.md; exit 1 on any failure that is not a
    recorded deviation."""
    from repro.experiments import expectations

    print("# Reproduced results\n")
    print("Stdout of `python -m repro report`: each ledger artefact run once, its table,")
    print("and its rows of `repro.experiments.expectations` judged against it.")
    print("`make report` regenerates this file; `scripts/check.sh` fails when they differ.")
    failures = judged = 0
    for name, config in expectations.CONFIGURATION.items():
        artefact = ARTEFACTS[name]
        kwargs = dict(config)
        if "--seed" in dict(artefact.flags):
            kwargs["seed"] = config.get("seed", 0) if args.seed is None else args.seed
        result = _produce(artefact, kwargs)
        module, _, run = artefact.run.partition(":")
        table, failed = expectations.judge(name, _resolve(module + ":cells")(*result))
        call = ", ".join(f"{key}={value!r}" for key, value in kwargs.items())
        print(f"\n## {name}\n\n`{module}.{run}({call})`\n")
        print(f"```\n{_resolve(artefact.render)(*result)}\n```\n")
        print(table)
        failures += failed
        judged += len(expectations.rows(name))
    print(f"\n{judged} rows judged, {failures} failed.")
    return 1 if failures else 0


#: The table, in ``--help`` order.  Columns: name, help, flags, run, render, plot.
ARTEFACTS: dict[str, Artefact] = {
    row.name: row
    for row in (
        Artefact("demo", "Run the quickstart demo: a guarded ANS under a spoofed flood",
                 SIM, "demo:run_demo", "demo:format_demo"),
        Artefact("calibration", "Calibration anchors: BIND UDP/TCP and ANS simulator capacity",
                 SIM, "calibration:run_calibration", "calibration:format_calibration"),
        Artefact("table1", "Table I: scheme comparison",
                 (*SIM, FAST), "table1:run_table1", "table1:format_table1"),
        Artefact("table2", "Table II: request latency per scheme",
                 SIM, "table2:run_table2", "table2:format_table2"),
        Artefact("table3", "Table III: guard throughput per scheme",
                 (*SIM, FAST), "table3:run_table3", "table3:format_table3"),
        Artefact("fig5", "Figure 5: BIND under attack, guard on/off",
                 (*SIM, FAST, PLOT), "fig5:run_fig5", "fig5:format_fig5", "plotting:plot_fig5"),
        Artefact("fig6", "Figure 6: guard throughput/CPU under attack",
                 (*SIM, FAST, PLOT), "fig6:run_fig6", "fig6:format_fig6", "plotting:plot_fig6"),
        Artefact("fig7", "Figure 7: TCP proxy throughput",
                 (*SIM, FAST, PLOT), "fig7:run_fig7", "fig7:format_fig7", "plotting:plot_fig7"),
        Artefact("attacks", "Attack analysis (amplification, guessing, zombies)",
                 (*SIM, FAST), "attacks:run_attacks", "attacks:format_attack_report"),
        Artefact("ablation", "Ablations: HCF baseline, rotation, RFC 7873",
                 (*SIM, FAST), "ablation:run_ablation", "ablation:format_ablation"),
        Artefact("containment", "Containment timeline: throughput as an attack starts mid-run",
                 (*SIM, FAST), "containment:run_containment", "containment:format_containment"),
        Artefact("faults", "Fault injection: blackout/flap/loss/chaos/restart/failover per scheme",
                 (*SIM, FAST), "faults:run_faults", "faults:format_faults"),
        # no analysis modes: the per-cell trace hashes in the manifest are the
        # farm's determinism witness, and nesting a second process-global
        # collector around them is invalid
        Artefact("farm", "Sharded scenario farm: run a matrix across worker processes with a "
                 "resumable manifest and deterministic merge",
                 (SEED, FAST, OBS, *FARM_FLAGS), handler=_farm),
        Artefact("control", "Adaptive overload control vs static schemes across attacks × faults",
                 (*SIM, FAST, STATIC_ONLY), "control:run_control", "control:format_control"),
        Artefact("fluid", "Analytical model predictions",
                 (), "fluid:FluidModel", "fluid:format_predictions"),
        Artefact("hybrid", "Hybrid fluid/packet mode: the Figure 6 sweep with 10⁶ modeled "
                 "clients, and its agreement with the closed forms and a packet run",
                 (), "hybrid:run_hybrid", "hybrid:format_hybrid"),
        Artefact("report", "Run every ledger artefact and judge it against the paper's numbers "
                 "(stdout is REPORT.md; exit 1 on a failed row)",
                 (REPORT_SEED,), handler=_report),
        Artefact("sensitivity", "Sensitivity of qualitative claims to the CPU cost model",
                 (), "sensitivity:run_sensitivity", "sensitivity:format_sensitivity"),
        # installs its own Observability (with a packet tap) and exports that
        Artefact("obs", "Observability showcase: metrics, spans and a packet tap of a short run",
                 (SEED, *MODES, OBS, FAST), handler=_obs),
    )
}


def _run_with_obs(handler, row: Artefact, args: argparse.Namespace) -> int:
    """Run ``handler`` with a process-wide Observability installed, then
    export what it gathered (run report, metrics, spans) to ``--obs DIR``."""
    from repro.obs import Observability, installed

    obs = Observability()
    with installed(obs):
        code = handler(row, args)
    for path in obs.write(args.obs):
        print(f"wrote {path}", file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="DNS guard (ICDCS 2006) reproduction: experiments and demos.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for row in ARTEFACTS.values():
        sub = subparsers.add_parser(row.name, help=row.help)
        for name, kwargs in row.flags:
            sub.add_argument(name, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    row = ARTEFACTS[args.command]
    handler = row.handler or _run_artefact

    def invoke() -> int:
        if handler is not _obs and getattr(args, "obs", None) is not None:
            return _run_with_obs(handler, row, args)
        return handler(row, args)

    modes = [name for name in ("sanitize", "races") if getattr(args, name, False)]
    if len(modes) > 1:
        parser.error("--sanitize and --races are mutually exclusive")
    if modes:
        from repro.analysis.modes import run_mode

        report = run_mode(modes[0], invoke)
        print(report.summary())
        return 0 if report.ok else 1
    return invoke()


if __name__ == "__main__":
    sys.exit(main())
