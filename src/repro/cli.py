"""Command-line interface.

``rfid-sched`` exposes the two things a user wants without writing code:
solve one instance (``solve``) and regenerate an evaluation figure
(``figure``)::

    rfid-sched solve --solver ptas --seed 7
    rfid-sched solve --solver distributed --lambda-R 14 --schedule
    rfid-sched figure fig8 --seeds 0 1 2
    rfid-sched list-solvers
    rfid-sched bench --quick
    rfid-sched bench compare --against HEAD-committed
    rfid-sched chaos --fail-rates 0 0.1 0.2
    rfid-sched trace run --quick --out trace.json

``bench`` runs the pinned-seed benchmark matrix under tracing and appends
the runs to ``BENCH_oneshot.json`` / ``BENCH_mcs.json`` (see
``docs/observability.md``); ``chaos`` sweeps injected fault rates and
appends to ``BENCH_chaos.json`` (see ``docs/robustness.md``), and ``chaos
--scale`` runs the same grid through the sharded scale tier (faults
composed with ``shard=``; ``s_``-prefixed labels in the same file).

``bench``, ``chaos`` and ``trace run`` shut down gracefully on
SIGINT/SIGTERM: the command unwinds through its cleanup blocks (JSONL
sinks flushed, worker pools terminated, BENCH merges atomic per record),
prints a partial-run marker to stderr and exits ``128 + signum``.

``bench compare`` audits the appended BENCH trajectories for work-counter
drift and wall-clock regressions, exiting non-zero on drift — the CI gate
(exit-code contract in ``docs/observability.md``).  Because ``bench``
itself takes flags, ``compare`` is dispatched by :func:`main` before the
main parser runs, keeping ``bench --quick`` untouched.

Every ``--workers`` flag (``solve``, ``bench``, ``chaos``) defaults to the
``REPRO_WORKERS`` environment variable when omitted — precedence CLI >
env > serial (see ``docs/performance.md``).  Worker counts never change
results.

``trace run`` executes one covering schedule under span tracing and writes
a Chrome trace-event JSON (openable in Perfetto / ``chrome://tracing``);
``trace convert`` turns a streamed JSONL event log into the same format.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from contextlib import contextmanager
from typing import List, Optional

from repro.baselines.colorwave import colorwave_covering_schedule
from repro.core.mcs import greedy_covering_schedule
from repro.core.oneshot import available_solvers, get_solver
from repro.deployment.scenario import Scenario
from repro.experiments.figures import FIGURE_DEFAULTS, SOLVER_KWARGS, run_figure
from repro.experiments.reporting import format_series_table
from repro.perf.parallel import env_default_workers
from repro.shard.spec import ShardSpec


class _SignalInterrupt(BaseException):
    """Raised by the graceful-shutdown handlers so long-running commands
    unwind through their ``with``/``finally`` blocks (JSONL sinks flushed,
    worker pools closed) instead of dying mid-write.

    Deliberately a ``BaseException`` (like :class:`KeyboardInterrupt`):
    library-level ``except Exception`` blocks — stdlib pool workers wrap
    their result ``put`` in one — must not be able to swallow a shutdown
    request and keep the process alive past its own termination."""

    def __init__(self, signum: int) -> None:
        super().__init__(f"interrupted by signal {signum}")
        self.signum = signum


@contextmanager
def _graceful_signals():
    """Trap SIGINT/SIGTERM into :class:`_SignalInterrupt` for the duration
    of a long-running command; restores the previous handlers on exit.
    No-op off the main thread (signal handlers can only be installed
    there) and for signals the platform refuses to override."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _raise(signum, frame):
        raise _SignalInterrupt(signum)

    previous = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, _raise)
        except (ValueError, OSError):  # pragma: no cover - exotic platforms
            pass
    try:
        yield
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def _run_guarded(fn, args: argparse.Namespace) -> int:
    """Run a long-running command under :func:`_graceful_signals`: on
    SIGINT/SIGTERM the command unwinds cleanly (sinks flushed, pools
    closed, BENCH merges are atomic per record), a partial-run marker goes
    to stderr, and the conventional ``128 + signum`` code is returned."""
    try:
        with _graceful_signals():
            return fn(args)
    except _SignalInterrupt as interrupt:
        try:
            name = signal.Signals(interrupt.signum).name
        except ValueError:  # pragma: no cover - unknown signal number
            name = str(interrupt.signum)
        print(
            f"partial run: interrupted by {name}; outputs flushed up to "
            f"the last completed write, BENCH files untouched by the "
            f"aborted sweep",
            file=sys.stderr,
        )
        return 128 + interrupt.signum


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfid-sched",
        description="Reader activation scheduling for multi-reader RFID systems "
        "(IPDPS 2011 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance")
    solve.add_argument("--solver", default="ptas", help="solver name (see list-solvers)")
    solve.add_argument("--readers", type=int, default=50)
    solve.add_argument("--tags", type=int, default=1200)
    solve.add_argument("--side", type=float, default=100.0)
    solve.add_argument("--lambda-R", type=float, default=10.0, dest="lambda_R")
    solve.add_argument("--lambda-r", type=float, default=5.0, dest="lambda_r")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument(
        "--schedule",
        action="store_true",
        help="run the full covering schedule instead of a single slot",
    )
    solve.add_argument(
        "--linklayer",
        choices=["aloha", "treewalk"],
        default=None,
        help="with --schedule: also account link-layer micro-slots per "
        "time-slot",
    )
    solve.add_argument(
        "--shard-cells",
        type=int,
        default=None,
        dest="shard_cells",
        help="with --schedule: solve through the spatial sharding tier with "
        "this target cell count (0 = auto-size, 1 = no partition, "
        "bit-identical to unsharded; see docs/scale.md)",
    )
    solve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="with --shard-cells: solve cells on N forked processes "
        "(-1 = CPU count; default: env REPRO_WORKERS, else serial); "
        "never changes results",
    )

    figure = sub.add_parser("figure", help="regenerate an evaluation figure")
    figure.add_argument("figure_id", choices=sorted(FIGURE_DEFAULTS))
    figure.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])

    sub.add_parser("list-solvers", help="list registered solver names")

    coverage = sub.add_parser(
        "coverage", help="coverage report for a generated deployment"
    )
    for sp in (coverage,):
        sp.add_argument("--readers", type=int, default=50)
        sp.add_argument("--tags", type=int, default=1200)
        sp.add_argument("--side", type=float, default=100.0)
        sp.add_argument("--lambda-R", type=float, default=10.0, dest="lambda_R")
        sp.add_argument("--lambda-r", type=float, default=5.0, dest="lambda_r")
        sp.add_argument("--seed", type=int, default=0)
    coverage.add_argument("--samples", type=int, default=20_000)

    render = sub.add_parser("render", help="ASCII map of a deployment + one slot")
    render.add_argument("--readers", type=int, default=30)
    render.add_argument("--tags", type=int, default=300)
    render.add_argument("--side", type=float, default=100.0)
    render.add_argument("--lambda-R", type=float, default=10.0, dest="lambda_R")
    render.add_argument("--lambda-r", type=float, default=5.0, dest="lambda_r")
    render.add_argument("--seed", type=int, default=0)
    render.add_argument("--solver", default="ptas")
    render.add_argument("--width", type=int, default=72)

    report = sub.add_parser(
        "report",
        help="write a markdown reproduction report (all figures), or — with "
        "--trace — render a streamed JSONL trace into a run summary",
    )
    report.add_argument("--out", default=None, help="output path (default: stdout)")
    report.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    report.add_argument(
        "--trace",
        default=None,
        metavar="JSONL",
        help="render this JSONL event log (written by trace run --jsonl) "
        "into a run report: slot timeline, per-cell solve heatmap, pool "
        "health, fault counts, latency histograms; --out ending in .html "
        "writes a self-contained HTML page",
    )

    sweep = sub.add_parser(
        "sweep", help="custom one-shot sweep over lambda_R or lambda_r"
    )
    sweep.add_argument("--param", choices=["lambda_R", "lambda_r"], required=True)
    sweep.add_argument("--values", type=float, nargs="+", required=True)
    sweep.add_argument("--fixed", type=float, default=None,
                       help="value of the non-swept lambda (defaults: 10 / 5)")
    sweep.add_argument("--algos", nargs="+", default=["ptas", "centralized", "ghc"])
    sweep.add_argument("--metric", choices=["oneshot_weight", "mcs_size"],
                       default="oneshot_weight")
    sweep.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    sweep.add_argument("--readers", type=int, default=50)
    sweep.add_argument("--tags", type=int, default=1200)
    sweep.add_argument("--side", type=float, default=100.0)
    sweep.add_argument("--save", default=None, help="write the raw sweep to JSON")

    bench = sub.add_parser(
        "bench",
        help="run the pinned-seed benchmark matrix and append to BENCH_*.json",
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="run the small CI matrix instead of the paper-scale one",
    )
    bench.add_argument(
        "--out-dir",
        default=".",
        help="directory receiving BENCH_oneshot.json / BENCH_mcs.json",
    )
    bench.add_argument(
        "--dry-run",
        action="store_true",
        help="run and print the matrix without touching the BENCH files",
    )
    bench.add_argument(
        "--workers",
        type=int,
        default=None,
        help="run bench jobs on N forked processes (-1 = CPU count; "
        "default: env REPRO_WORKERS, else serial); work counters are "
        "identical to a serial run",
    )
    bench.add_argument(
        "--profile",
        action="store_true",
        help="print the per-stage wall-clock breakdown "
        "(solve / inventory / retire) of each mcs record",
    )
    bench.add_argument(
        "--scale",
        action="store_true",
        help="run the scale-tier matrix instead (sharded vs unsharded "
        "pairs, BENCH_scale.json; --quick skips the 10^4-reader point; "
        "see docs/scale.md)",
    )
    bench.add_argument(
        "--shard-cells",
        type=int,
        default=None,
        dest="shard_cells",
        help="with --scale: override the sharded points' target cell count",
    )
    bench.add_argument(
        "--points",
        nargs="+",
        default=None,
        metavar="LABEL",
        help="with --scale: run only the points with these labels "
        "(e.g. s_ident_r120t1500 for a cheap identity-pair append)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="sweep injected failure/miss rates across solvers and append "
        "to BENCH_chaos.json (docs/robustness.md)",
    )
    chaos.add_argument("--solvers", nargs="+", default=None)
    chaos.add_argument(
        "--fail-rates", type=float, nargs="+", default=[0.0, 0.05, 0.1, 0.2],
        dest="fail_rates",
        help="per-slot flaky-activation probabilities to inject",
    )
    chaos.add_argument(
        "--miss-rates", type=float, nargs="+", default=[0.0, 0.1],
        dest="miss_rates",
        help="per-read miss probabilities to inject",
    )
    chaos.add_argument(
        "--scale",
        action="store_true",
        help="run the grid through the sharded scale tier instead "
        "(faults composed with shard=ShardSpec; s_-prefixed labels; "
        "see docs/scale.md and docs/robustness.md)",
    )
    chaos.add_argument(
        "--shard-cells",
        type=int,
        default=None,
        dest="shard_cells",
        help="with --scale: target cell count of the sharded points "
        "(default 16)",
    )
    chaos.add_argument("--readers", type=int, default=None)
    chaos.add_argument("--tags", type=int, default=None)
    chaos.add_argument("--side", type=float, default=None)
    chaos.add_argument("--lambda-R", type=float, default=None, dest="lambda_R")
    chaos.add_argument("--lambda-r", type=float, default=None, dest="lambda_r")
    chaos.add_argument("--seed", type=int, default=None)
    chaos.add_argument(
        "--fault-seed", type=int, default=97, dest="fault_seed",
        help="entropy of the injected fault worlds (schedules stay pinned "
        "by --seed)",
    )
    chaos.add_argument("--max-slots", type=int, default=2048, dest="max_slots")
    chaos.add_argument(
        "--workers",
        type=int,
        default=None,
        help="run each solver's fault grid on N pooled worker processes "
        "(-1 = CPU count; default: env REPRO_WORKERS, else serial); "
        "records are identical to a serial run",
    )
    chaos.add_argument(
        "--out-dir", default=".", help="directory receiving BENCH_chaos.json"
    )
    chaos.add_argument(
        "--dry-run",
        action="store_true",
        help="run and print the sweep without touching BENCH_chaos.json",
    )

    trace = sub.add_parser(
        "trace",
        help="span-trace a run and export it for Perfetto / chrome://tracing",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trun = trace_sub.add_parser(
        "run", help="run a covering schedule under tracing and export the spans"
    )
    trun.add_argument("--solver", default="ptas", help="solver name (see list-solvers)")
    trun.add_argument("--readers", type=int, default=50)
    trun.add_argument("--tags", type=int, default=1200)
    trun.add_argument("--side", type=float, default=100.0)
    trun.add_argument("--lambda-R", type=float, default=10.0, dest="lambda_R")
    trun.add_argument("--lambda-r", type=float, default=5.0, dest="lambda_r")
    trun.add_argument("--seed", type=int, default=0)
    trun.add_argument(
        "--quick",
        action="store_true",
        help="trace the first quick-matrix scenario (12 readers, 100 tags, "
        "pinned seed) instead of the flag-built one",
    )
    trun.add_argument(
        "--linklayer",
        choices=["aloha", "treewalk"],
        default=None,
        help="also run (and trace) the link-layer inventory stage",
    )
    trun.add_argument(
        "--shard-cells",
        type=int,
        default=None,
        dest="shard_cells",
        help="trace the schedule through the spatial sharding tier with "
        "this target cell count; relayed per-cell solves appear as "
        "shard.solve spans (see docs/scale.md)",
    )
    trun.add_argument(
        "--workers",
        type=int,
        default=None,
        help="with --shard-cells: solve cells on N forked processes; "
        "worker events ship back over the cross-process trace relay and "
        "appear on per-worker lanes in the exported trace "
        "(-1 = CPU count; default: env REPRO_WORKERS, else serial)",
    )
    trun.add_argument(
        "--progress",
        action="store_true",
        help="repaint a one-line live status per completed slot on stderr "
        "(TTY only)",
    )
    trun.add_argument(
        "--out", default="trace.json", help="Chrome trace-event output path"
    )
    trun.add_argument(
        "--jsonl",
        default=None,
        help="also stream raw events to this JSONL file while running",
    )
    trun.add_argument(
        "--max-events",
        type=int,
        default=None,
        dest="max_events",
        help="cap the in-memory event buffer (overflow is counted, not kept)",
    )
    tconv = trace_sub.add_parser(
        "convert", help="convert a streamed JSONL event log to Chrome trace JSON"
    )
    tconv.add_argument("jsonl_path", help="JSONL file written by --jsonl")
    tconv.add_argument(
        "--out", default="trace.json", help="Chrome trace-event output path"
    )
    return parser


def _build_compare_parser() -> argparse.ArgumentParser:
    """Parser for ``bench compare`` (dispatched before the main parser so
    the flag-taking ``bench`` subcommand keeps its existing grammar)."""
    parser = argparse.ArgumentParser(
        prog="rfid-sched bench compare",
        description="Audit BENCH_*.json trajectories for work-counter drift "
        "and wall-clock regressions (docs/observability.md). Exit codes: "
        "0 clean, 1 drift, 2 unreadable input.",
    )
    parser.add_argument(
        "files",
        nargs="*",
        help="BENCH files to audit (default: the three committed families)",
    )
    parser.add_argument(
        "--against",
        default=None,
        help="audit the working files against a committed revision, e.g. "
        "'HEAD-committed' or 'main-committed' (append-only + no counter "
        "drift vs the committed trajectory)",
    )
    parser.add_argument(
        "--allow",
        action="append",
        default=[],
        metavar="LABEL",
        help="label whose counter drift is expected (repeatable); "
        "downgrades its findings to warnings",
    )
    parser.add_argument(
        "--max-wall-ratio",
        type=float,
        default=1.5,
        dest="max_wall_ratio",
        help="flag the latest run when wall-clock exceeds the group's best "
        "by this factor (default 1.5)",
    )
    parser.add_argument(
        "--wall-floor",
        type=float,
        default=0.05,
        dest="wall_floor_s",
        help="ignore wall-clock regressions below this many seconds "
        "(default 0.05)",
    )
    parser.add_argument(
        "--strict-wall",
        action="store_true",
        dest="strict_wall",
        help="treat wall-clock regressions as errors instead of warnings",
    )
    return parser


def _cmd_solve(args: argparse.Namespace) -> int:
    scenario = Scenario(
        num_readers=args.readers,
        num_tags=args.tags,
        side=args.side,
        lambda_interference=args.lambda_R,
        lambda_interrogation=args.lambda_r,
        seed=args.seed,
    )
    system = scenario.build()
    print(
        f"instance: {args.readers} readers, {args.tags} tags, "
        f"side={args.side:g}, lambda_R={args.lambda_R:g}, "
        f"lambda_r={args.lambda_r:g}, seed={args.seed}"
    )
    print(f"coverable tags: {int(system.covered_by_any().sum())}/{system.num_tags}")

    if args.shard_cells is not None and (
        not args.schedule or args.solver == "colorwave"
    ):
        print("error: --shard-cells requires --schedule with a one-shot "
              "solver (see docs/scale.md)", file=sys.stderr)
        return 2
    if args.linklayer and (not args.schedule or args.solver == "colorwave"):
        print("error: --linklayer requires a one-shot solver run with "
              "--schedule; a single slot and the Colorwave schedule simulate "
              "no link layer", file=sys.stderr)
        return 2
    if args.schedule:
        if args.solver == "colorwave":
            result = colorwave_covering_schedule(system, seed=args.seed)
        else:
            shard = None
            if args.shard_cells is not None:
                shard = ShardSpec(
                    cells=args.shard_cells,
                    workers=env_default_workers(args.workers),
                )
            solver = get_solver(args.solver, **SOLVER_KWARGS.get(args.solver, {}))
            result = greedy_covering_schedule(
                system,
                solver,
                linklayer=args.linklayer,
                seed=args.seed,
                shard=shard,
            )
        print(f"covering schedule: {result.size} slots, complete={result.complete}")
        print(f"tags read: {result.tags_read_total}; per-slot: {result.reads_per_slot()}")
        if args.linklayer:
            print(f"link-layer duration: {result.total_micro_slots} micro-slots")
    else:
        solver = get_solver(args.solver, **SOLVER_KWARGS.get(args.solver, {}))
        result = solver(system, None, args.seed)
        print(
            f"one-shot ({args.solver}): weight={result.weight} "
            f"active={result.active.tolist()} feasible={result.feasible}"
        )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    spec = FIGURE_DEFAULTS[args.figure_id]
    result = run_figure(spec, seeds=tuple(args.seeds))
    print(format_series_table(result, spec.title))
    return 0


def _scenario_from_args(args: argparse.Namespace) -> Scenario:
    return Scenario(
        num_readers=args.readers,
        num_tags=args.tags,
        side=args.side,
        lambda_interference=args.lambda_R,
        lambda_interrogation=args.lambda_r,
        seed=args.seed,
    )


def _cmd_coverage(args: argparse.Namespace) -> int:
    from repro.model.regions import coverage_report

    system = _scenario_from_args(args).build()
    report = coverage_report(system, side=args.side, samples=args.samples, seed=args.seed)
    print(
        f"monitored region M: {100 * report.monitored_fraction:.1f}% of the "
        f"area ({report.monitored_area:.0f} units²)"
    )
    print(
        f"RRc-exposed overlap (≥2 interrogation regions): "
        f"{100 * report.overlap_fraction:.1f}% ({report.rrc_exposed_area:.0f} units²)"
    )
    print(f"mean coverage depth: {report.mean_coverage_depth:.2f}")
    print("coverage depth histogram:")
    for depth, frac in sorted(report.coverage_histogram.items()):
        print(f"  {depth} readers: {100 * frac:5.1f}%")
    covered_tags = int(system.covered_by_any().sum())
    print(f"coverable tags: {covered_tags}/{system.num_tags}")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from repro.viz import render_deployment, render_schedule_timeline
    from repro.experiments.analysis import summarize_schedule

    system = _scenario_from_args(args).build()
    solver = get_solver(args.solver, **SOLVER_KWARGS.get(args.solver, {}))
    result = solver(system, None, args.seed)
    print(render_deployment(system, active=result.active, width=args.width, side=args.side))
    print(f"\none-shot ({args.solver}): weight={result.weight}, {result.size} readers active")
    schedule = greedy_covering_schedule(system, solver, seed=args.seed)
    print("\ncovering schedule:")
    print(render_schedule_timeline(schedule.reads_per_slot()))
    print("\n" + summarize_schedule(system, schedule))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.figures import FigureSpec

    fixed = args.fixed
    if fixed is None:
        fixed = 5.0 if args.param == "lambda_R" else 10.0
    spec = FigureSpec(
        figure_id="custom",
        title=f"custom sweep: {args.metric} vs {args.param} "
        f"({'lambda_r' if args.param == 'lambda_R' else 'lambda_R'}={fixed:g})",
        metric=args.metric,
        sweep_param=args.param,
        sweep_values=tuple(args.values),
        fixed_lambda_R=None if args.param == "lambda_R" else fixed,
        fixed_lambda_r=None if args.param == "lambda_r" else fixed,
        algorithms=tuple(args.algos),
        num_readers=args.readers,
        num_tags=args.tags,
        side=args.side,
    )
    from repro.experiments.figures import run_figure

    result = run_figure(spec, seeds=tuple(args.seeds))
    print(format_series_table(result, spec.title))
    if args.save:
        from repro.io import save_sweep

        save_sweep(result, args.save)
        print(f"saved raw sweep to {args.save}")
    return 0


def _cmd_bench_scale(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.obs.bench import write_bench_files
    from repro.shard.bench import (
        FULL_POINTS,
        QUICK_POINTS,
        format_scale_table,
        run_scale_matrix,
    )

    points = list(QUICK_POINTS if args.quick else FULL_POINTS)
    if args.points is not None:
        wanted = set(args.points)
        points = [p for p in points if p.label in wanted]
        missing = wanted - {p.label for p in points}
        if missing:
            print(
                f"error: unknown scale point labels: {sorted(missing)}",
                file=sys.stderr,
            )
            return 2
    if args.shard_cells is not None:
        points = [
            dataclasses.replace(p, shard_cells=args.shard_cells)
            if p.shard_cells is not None
            else p
            for p in points
        ]
    if args.workers is not None:
        points = [
            dataclasses.replace(p, workers=args.workers)
            if p.shard_cells is not None
            else p
            for p in points
        ]
    print(
        f"running {'quick' if args.quick else 'full'} scale matrix "
        f"({len(points)} points)"
    )
    records = run_scale_matrix(points)
    print(format_scale_table(records))
    if args.dry_run:
        print("dry run: BENCH files not written")
        return 0
    paths = write_bench_files(records, args.out_dir)
    for family in sorted(paths):
        print(f"appended {len(records[family])} {family} runs to {paths[family]}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.obs.bench import (
        FULL_MATRIX,
        QUICK_MATRIX,
        format_bench_table,
        format_stage_profile,
        run_bench_matrix,
        write_bench_files,
    )

    # CLI > REPRO_WORKERS env > serial, for the plain and scale matrices
    args.workers = env_default_workers(args.workers)
    if args.scale:
        return _cmd_bench_scale(args)
    if args.points is not None:
        print("error: --points requires --scale", file=sys.stderr)
        return 2
    matrix = QUICK_MATRIX if args.quick else FULL_MATRIX
    print(
        f"running {'quick' if args.quick else 'full'} benchmark matrix "
        f"({len(matrix)} scenario points, oneshot + mcs)"
    )
    records = run_bench_matrix(matrix, workers=args.workers)
    print(format_bench_table(records))
    if args.profile:
        print()
        print(format_stage_profile(records))
    if args.dry_run:
        print("dry run: BENCH files not written")
        return 0
    paths = write_bench_files(records, args.out_dir)
    for family in sorted(paths):
        print(f"appended {len(records[family])} {family} runs to {paths[family]}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments.chaos import (
        DEFAULT_SCENARIO,
        DEFAULT_SOLVERS,
        SCALE_SCENARIO,
        SCALE_SHARD_CELLS,
        SCALE_SOLVERS,
        format_chaos_table,
        run_chaos_sweep,
    )
    from repro.obs.bench import write_bench_files

    if args.shard_cells is not None and not args.scale:
        print("error: --shard-cells requires --scale", file=sys.stderr)
        return 2
    # scenario flags default per tier: the small chaos scenario, or the
    # multi-cell scale one under --scale
    base = SCALE_SCENARIO if args.scale else DEFAULT_SCENARIO
    solvers = list(
        args.solvers
        if args.solvers is not None
        else (SCALE_SOLVERS if args.scale else DEFAULT_SOLVERS)
    )
    scenario_kwargs = dict(
        num_readers=args.readers if args.readers is not None
        else base["num_readers"],
        num_tags=args.tags if args.tags is not None else base["num_tags"],
        side=args.side if args.side is not None else base["side"],
        lambda_interference=args.lambda_R if args.lambda_R is not None
        else base["lambda_interference"],
        lambda_interrogation=args.lambda_r if args.lambda_r is not None
        else base["lambda_interrogation"],
        seed=args.seed if args.seed is not None else base["seed"],
    )
    grid = len(solvers) * len(args.fail_rates) * len(args.miss_rates)
    tier = "scale chaos sweep (sharded)" if args.scale else "chaos sweep"
    print(
        f"{tier}: {len(solvers)} solvers x "
        f"{len(args.fail_rates)} fail rates x {len(args.miss_rates)} miss "
        f"rates = {grid} points (fault seed {args.fault_seed})"
    )
    shard_cells = None
    if args.scale:
        shard_cells = (
            args.shard_cells
            if args.shard_cells is not None
            else SCALE_SHARD_CELLS
        )
    records = run_chaos_sweep(
        solvers=solvers,
        fail_rates=args.fail_rates,
        miss_rates=args.miss_rates,
        scenario_kwargs=scenario_kwargs,
        fault_seed=args.fault_seed,
        max_slots=args.max_slots,
        workers=env_default_workers(args.workers),
        shard_cells=shard_cells,
    )
    print(format_chaos_table(records))
    if args.dry_run:
        print("dry run: BENCH_chaos.json not written")
        return 0
    path = write_bench_files({"chaos": records}, args.out_dir)["chaos"]
    print(f"appended {len(records)} chaos runs to {path}")
    return 0


def _cmd_trace_run(args: argparse.Namespace) -> int:
    from repro.obs.events import TraceRecorder, recording
    from repro.obs.relay import relayed_from
    from repro.obs.report import ProgressLine
    from repro.obs.sink import JsonlSink, TeeRecorder, write_chrome_trace
    from repro.obs.spans import reset_spans

    if args.quick:
        from repro.obs.bench import QUICK_MATRIX

        point = QUICK_MATRIX[0]
        scenario = point.build()
        solver_name = args.solver if args.solver != "ptas" else point.solver
        solver_kwargs = dict(point.solver_kwargs) if solver_name == point.solver else {}
        label = point.label
    else:
        scenario = _scenario_from_args(args)
        solver_name = args.solver
        solver_kwargs = SOLVER_KWARGS.get(solver_name, {})
        label = "custom"
    system = scenario.build()
    solver = get_solver(solver_name, **solver_kwargs)

    shard = None
    if args.shard_cells is not None:
        shard = ShardSpec(
            cells=args.shard_cells,
            workers=env_default_workers(args.workers),
        )
    elif args.workers is not None:
        print("error: trace run --workers requires --shard-cells "
              "(see docs/scale.md)", file=sys.stderr)
        return 2

    recorder = TraceRecorder(max_events=args.max_events)
    sink = JsonlSink(args.jsonl) if args.jsonl else None
    progress = ProgressLine() if args.progress else None
    children = [r for r in (recorder, sink, progress) if r is not None]
    active = TeeRecorder(*children) if len(children) > 1 else recorder
    reset_spans()
    try:
        with recording(active):
            schedule = greedy_covering_schedule(
                system,
                solver,
                linklayer=args.linklayer,
                seed=scenario.seed,
                shard=shard,
            )
    finally:
        if progress:
            progress.close()
        if sink:
            sink.close()
    write_chrome_trace(recorder.events, args.out)
    print(
        f"traced {label} ({solver_name}): {schedule.size} slots, "
        f"complete={schedule.complete}"
    )
    print(
        f"wrote {len(recorder.events)} events to {args.out} "
        f"(open in Perfetto or chrome://tracing)"
    )
    if recorder.dropped_events:
        print(f"warning: {recorder.dropped_events} events dropped at the "
              f"--max-events={args.max_events} cap")
    relay_dropped = relayed_from(recorder)
    if relay_dropped:
        print(f"warning: {relay_dropped} worker events dropped at the "
              f"relay buffer cap (repro.obs.relay.RELAY_MAX_EVENTS)")
    if sink:
        print(f"streamed {sink.events_written} events to {args.jsonl}")
    return 0


def _cmd_report_trace(args: argparse.Namespace) -> int:
    from repro.obs.report import render_report, write_report
    from repro.obs.sink import load_jsonl

    try:
        events = load_jsonl(args.trace)
    except OSError as exc:
        print(f"error: cannot read trace {args.trace}: {exc}", file=sys.stderr)
        return 2
    title = f"run report: {args.trace}"
    if args.out:
        write_report(events, args.out, title=title)
        print(f"wrote {args.out} ({len(events)} events)")
    else:
        print(render_report(events, title=title), end="")
    return 0


def _cmd_trace_convert(args: argparse.Namespace) -> int:
    from repro.obs.sink import load_jsonl, write_chrome_trace

    events = load_jsonl(args.jsonl_path)
    write_chrome_trace(events, args.out)
    print(f"converted {len(events)} events from {args.jsonl_path} to {args.out}")
    return 0


def _cmd_bench_compare(argv: List[str]) -> int:
    from repro.obs.compare import DEFAULT_BENCH_FILES, run_compare

    args = _build_compare_parser().parse_args(argv)
    paths = args.files or [f for f in DEFAULT_BENCH_FILES]
    code, report = run_compare(
        paths,
        against=args.against,
        allow_labels=args.allow,
        max_wall_ratio=args.max_wall_ratio,
        wall_floor_s=args.wall_floor_s,
        strict_wall=args.strict_wall,
    )
    print(report)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv_list = list(sys.argv[1:]) if argv is None else list(argv)
    if argv_list[:2] == ["bench", "compare"]:
        return _cmd_bench_compare(argv_list[2:])
    args = _build_parser().parse_args(argv_list)
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "coverage":
        return _cmd_coverage(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "bench":
        return _run_guarded(_cmd_bench, args)
    if args.command == "chaos":
        return _run_guarded(_cmd_chaos, args)
    if args.command == "report":
        if args.trace:
            return _cmd_report_trace(args)
        from repro.experiments.report import generate_report

        text = generate_report(seeds=tuple(args.seeds))
        if args.out:
            from pathlib import Path

            Path(args.out).write_text(text)
            print(f"wrote {args.out}")
        else:
            print(text)
        return 0
    if args.command == "render":
        return _cmd_render(args)
    if args.command == "list-solvers":
        for name in available_solvers():
            print(name)
        return 0
    if args.command == "trace":
        if args.trace_command == "run":
            return _run_guarded(_cmd_trace_run, args)
        return _cmd_trace_convert(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
