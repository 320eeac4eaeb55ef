"""Pinned-seed benchmark matrix behind ``rfid-sched bench``.

Two families, mirroring the paper's evaluation axes (Figures 6–9 sweep
reader/tag density via the Poisson means):

* **oneshot** — one solver invocation per scenario point (Definition 6);
* **mcs** — the full greedy covering schedule (Definitions 4–5).

Every point pins its seed, so re-running the same matrix on the same library
version reproduces the same *work* counters (``sets_evaluated``,
``slots_to_completion``, ``tags_per_slot``) exactly; only wall-clock varies
with the host.  ``--quick`` runs a small matrix suited to CI smoke tests;
the full matrix runs the paper-scale workload.

Every family measures a run with :func:`measure_run`: an untimed
:class:`PeakMemory` pass first, then the timed pass whose wall clock,
work counters and outcome the record keeps, so tracemalloc never slows a
recorded wall.

Records are appended to ``BENCH_oneshot.json`` / ``BENCH_mcs.json`` via
:func:`repro.obs.export.merge_run`, growing the repo's performance
trajectory one run at a time.
"""

from __future__ import annotations

import dataclasses
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.collectors import RunCollector
from repro.obs.events import recording
from repro.obs.export import merge_run, run_record
from repro.perf.pool import WorkerPool

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover
    resource = None

PathLike = Union[str, Path]


class PeakMemory:
    """Context manager measuring peak memory around a benched region.

    On exit, :attr:`tracemalloc_kb` holds the peak Python-heap size
    (``tracemalloc``) over the region in KiB, and :attr:`rss_kb` the
    process peak resident set size (``ru_maxrss``, best-effort: ``None``
    where the ``resource`` module is unavailable).  Nesting-safe: if
    tracemalloc is already tracing, the peak counter is reset instead of
    restarted and tracing is left running on exit.

    Tracemalloc hooks every allocation, so a profiled region pays a
    measurable wall-clock overhead; :func:`measure_run` therefore takes
    the peaks in a separate, untimed pass of the run.
    """

    def __enter__(self) -> "PeakMemory":
        self._owns_trace = not tracemalloc.is_tracing()
        if self._owns_trace:
            tracemalloc.start()
        else:
            tracemalloc.reset_peak()
        return self

    def __exit__(self, *exc) -> None:
        _, peak = tracemalloc.get_traced_memory()
        self.tracemalloc_kb = peak / 1024.0
        if self._owns_trace:
            tracemalloc.stop()
        self.rss_kb: Optional[float] = None
        if resource is not None:
            ru = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            # ru_maxrss is KiB on Linux but bytes on macOS
            self.rss_kb = ru / 1024.0 if sys.platform == "darwin" else float(ru)

    def update_metrics(self, metrics: dict) -> dict:
        """Fold the measured peaks into a bench *metrics* dict in place
        (``peak_tracemalloc_kb`` always, ``peak_rss_kb`` best-effort);
        returns the dict."""
        metrics["peak_tracemalloc_kb"] = round(self.tracemalloc_kb, 1)
        if self.rss_kb is not None:
            metrics["peak_rss_kb"] = round(self.rss_kb, 1)
        return metrics


@dataclass(frozen=True)
class BenchPoint:
    """One scenario point of the benchmark matrix."""

    label: str
    solver: str
    scenario_kwargs: dict = field(default_factory=dict)
    solver_kwargs: dict = field(default_factory=dict)

    def build(self):
        """Materialise the point's :class:`~repro.deployment.Scenario`."""
        from repro.deployment.scenario import Scenario

        return Scenario(**self.scenario_kwargs)


def _point(label: str, solver: str, readers: int, tags: int, side: float,
           lam_R: float, lam_r: float, seed: int, **solver_kwargs) -> BenchPoint:
    return BenchPoint(
        label=label,
        solver=solver,
        scenario_kwargs=dict(
            num_readers=readers,
            num_tags=tags,
            side=side,
            lambda_interference=lam_R,
            lambda_interrogation=lam_r,
            seed=seed,
        ),
        solver_kwargs=dict(solver_kwargs),
    )


#: CI-sized matrix: three density points, small instances, pinned seeds.
QUICK_MATRIX: Tuple[BenchPoint, ...] = (
    _point("q_sparse_r12t100", "ptas", 12, 100, 40.0, 8.0, 5.0, 101, k=2),
    _point("q_mid_r16t150", "ptas", 16, 150, 50.0, 10.0, 5.0, 202, k=2),
    _point("q_dense_r20t200", "ptas", 20, 200, 50.0, 12.0, 6.0, 303, k=2),
)

#: Paper-scale matrix: the Section-VI workload at three λ_R densities.
FULL_MATRIX: Tuple[BenchPoint, ...] = (
    _point("p_lR8_r50t1200", "ptas", 50, 1200, 100.0, 8.0, 5.0, 1001, k=3),
    _point("p_lR10_r50t1200", "ptas", 50, 1200, 100.0, 10.0, 5.0, 1002, k=3),
    _point("p_lR14_r50t1200", "ptas", 50, 1200, 100.0, 14.0, 5.0, 1003, k=3),
)


def measure_run(
    bench: str,
    label: str,
    solver: str,
    scenario: dict,
    prepare: Callable[[], Callable[[], Any]],
    outcome: Callable[[Any], dict],
) -> dict:
    """Measure one benchmark run; returns its run record.

    *prepare* builds the run's inputs, untimed, and returns the callable
    to measure; it is called once per pass, so both passes start from
    fresh inputs and caches.  The first pass runs under
    :class:`PeakMemory` and is not timed; it runs first so the process
    peak RSS holds no leftovers of the timed pass.  The second pass runs
    under a :class:`~repro.obs.collectors.RunCollector` and the wall
    clock, and its return value goes to *outcome*, whose metrics join the
    collector summary and the memory peaks.
    """
    run = prepare()
    mem = PeakMemory()
    with mem, recording(RunCollector()):
        run()
    run = prepare()
    collector = RunCollector()
    t0 = time.perf_counter()
    with recording(collector):
        result = run()
    wall = time.perf_counter() - t0
    metrics = mem.update_metrics(collector.summary())
    metrics.update(outcome(result))
    return run_record(
        bench=bench,
        label=label,
        solver=solver,
        scenario=scenario,
        metrics=metrics,
        wall_clock_s=wall,
    )


def run_oneshot_bench(point: BenchPoint) -> dict:
    """Measure one solver invocation at *point*; returns a run record.
    The wall clock times the solver call alone (:func:`measure_run`)."""
    from repro.core.oneshot import get_solver

    scenario = point.build()

    def prepare():
        system = scenario.build()
        solver = get_solver(point.solver, **point.solver_kwargs)
        return lambda: solver(system, None, scenario.seed)

    return measure_run(
        "oneshot", point.label, point.solver, dataclasses.asdict(scenario),
        prepare,
        lambda result: {
            "weight": int(result.weight),
            "active_readers": int(result.size),
            "feasible": bool(result.feasible),
        },
    )


def run_mcs_bench(point: BenchPoint) -> dict:
    """Measure a full greedy covering schedule at *point*; returns a run
    record.  The wall clock times the schedule alone (:func:`measure_run`).
    """
    from repro.core.mcs import greedy_covering_schedule
    from repro.core.oneshot import get_solver

    scenario = point.build()

    def prepare():
        system = scenario.build()
        solver = get_solver(point.solver, **point.solver_kwargs)
        return lambda: greedy_covering_schedule(
            system, solver, seed=scenario.seed
        )

    return measure_run(
        "mcs", point.label, point.solver, dataclasses.asdict(scenario),
        prepare,
        lambda schedule: {
            "slots_to_completion": int(schedule.size),
            "complete": bool(schedule.complete),
        },
    )


def _run_bench_job(job: Tuple[str, BenchPoint]) -> dict:
    """Dispatch one (family, point) job — module-level for worker
    processes."""
    family, point = job
    run = run_oneshot_bench if family == "oneshot" else run_mcs_bench
    return run(point)


def _dispatch_bench_jobs(
    jobs: List[Tuple[str, BenchPoint]],
    workers: Optional[int],
) -> List[dict]:
    """Run the job tuples through one worker pool, in job order.

    The single dispatch seam for every bench family mix: the pool forks
    once for the whole matrix (``_run_bench_job`` is module-level, so it
    ships by reference), runs the jobs with the usual payload-order merge,
    and is torn down before the records are split back into families.
    Serial worker counts never start a pool.
    """
    with WorkerPool(workers) as pool:
        return pool.map(_run_bench_job, jobs)


def run_bench_matrix(
    points: Sequence[BenchPoint],
    workers: Optional[int] = None,
) -> Dict[str, List[dict]]:
    """Run both bench families over *points*; returns records keyed by
    family (``"oneshot"`` / ``"mcs"``).

    ``workers > 1`` runs the jobs on forked processes.  Each job installs
    its own :class:`RunCollector` inside the worker and returns the
    finished record, so every counter in the record — ``sets_evaluated``,
    ``sets_by_context``, collision tallies — is identical to a serial run;
    only the per-record wall-clock reflects a loaded machine.  Under
    forked workers the :class:`PeakMemory` tracemalloc peak is still per
    run; the RSS peak is per worker process.
    """
    jobs = [(family, p) for family in ("oneshot", "mcs") for p in points]
    records = _dispatch_bench_jobs(jobs, workers)
    return {
        "oneshot": records[: len(points)],
        "mcs": records[len(points):],
    }


def write_bench_files(
    records: Dict[str, List[dict]], out_dir: PathLike = "."
) -> Dict[str, Path]:
    """Append *records* to ``BENCH_oneshot.json`` / ``BENCH_mcs.json`` in
    *out_dir*; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: Dict[str, Path] = {}
    for family, recs in records.items():
        path = out / f"BENCH_{family}.json"
        for record in recs:
            merge_run(path, record)
        paths[family] = path
    return paths


#: Span names of the MCS driver's per-slot stages, in pipeline order.
PROFILE_STAGES = ("mcs.solve", "mcs.inventory", "mcs.retire")


def format_stage_profile(records: Dict[str, List[dict]]) -> str:
    """Per-stage wall-clock breakdown of the mcs records (``--profile``).

    One row per record with total seconds spent in each MCS driver stage
    (the ``mcs.solve`` / ``mcs.inventory`` / ``mcs.retire`` entries of the
    ``stage_seconds_by_name`` metric, which sums span durations by name)
    plus the solve stage's share of the summed stage time.  Records from
    parallel runs grow a ``pool.dispatch`` column (serial records never
    carry one).
    """
    mcs_records = records.get("mcs", ())
    stage_names = list(PROFILE_STAGES)
    if any(
        "pool.dispatch" in r["metrics"].get("stage_seconds_by_name", {})
        for r in mcs_records
    ):
        stage_names.append("pool.dispatch")
    rows = [
        f"{'label':<24} "
        + " ".join(f"{s + '_s':>16}" for s in stage_names)
        + f" {'solve%':>7}"
    ]
    for r in mcs_records:
        stages = r["metrics"].get("stage_seconds_by_name", {})
        total = sum(stages.get(s, 0.0) for s in PROFILE_STAGES)
        share = 100.0 * stages.get("mcs.solve", 0.0) / total if total else 0.0
        rows.append(
            f"{r['label']:<24} "
            + " ".join(f"{stages.get(s, 0.0):>16.4f}" for s in stage_names)
            + f" {share:>6.1f}%"
        )
    if len(rows) == 1:
        rows.append("(no mcs records)")
    return "\n".join(rows)


def format_bench_table(records: Dict[str, List[dict]]) -> str:
    """Human-readable summary of a bench run, one row per record."""
    rows = [
        f"{'family':<8} {'label':<20} {'solver':<12} "
        f"{'wall_s':>8} {'solver_s':>9} {'sets':>9} {'slots':>6} {'weight':>7}"
    ]
    for family, recs in sorted(records.items()):
        for r in recs:
            m = r["metrics"]
            rows.append(
                f"{family:<8} {r['label']:<20} {r['solver']:<12} "
                f"{r['wall_clock_s']:>8.3f} "
                f"{m['solver_wall_clock_s']:>9.3f} "
                f"{m['sets_evaluated']:>9d} "
                f"{m.get('slots_to_completion', '-')!s:>6} "
                f"{m.get('weight', '-')!s:>7}"
            )
    return "\n".join(rows)
