"""Chaos harness: sweep injected fault rates across solvers.

The robustness analogue of the benchmark matrix (:mod:`repro.obs.bench`):
for each solver, first run a fault-free baseline on a pinned scenario, then
re-run the same schedule under a grid of
``FaultPlan.uniform_flaky(fail_rate) × miss_rate`` worlds and report

* **coverage** — fraction of coverable tags read before the schedule ended
  (liveness: non-permanent faults plus ACK-based retirement should keep this
  at 1.0 until rates get extreme);
* **slowdown** — slots-to-completion relative to the fault-free baseline
  (the price of retries and excluded readers);
* **outcome** — ``complete`` / ``exhausted`` / ``stalled``
  (:class:`~repro.core.mcs.ScheduleOutcome`).

Every point runs under a :class:`~repro.obs.collectors.RunCollector`, so the
fault counters (``readers_failed``, ``reads_missed``, …) land in the record
alongside the classic work counters, and the records append to
``BENCH_chaos.json`` through the same versioned schema as the other
families.  The CLI entry point is ``rfid-sched chaos``.

``run_chaos_sweep(..., shard_cells=N)`` is the scale-tier leg
(``rfid-sched chaos --scale``): the same grid run through the *sharded*
driver (``shard=ShardSpec(...)`` composed with the fault plan), anchored by
a fault-free sharded baseline.  Its records carry ``s_``-prefixed labels and
append to the same ``BENCH_chaos.json``; the pinned counters are worker-
count-independent, so the drift gate covers the sharded fault world too.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence, Tuple

from repro.faults import FaultPlan
from repro.obs.collectors import RunCollector
from repro.obs.events import recording
from repro.obs.export import run_record
from repro.perf.pool import WorkerPool

#: Scenario of the default chaos sweep: small enough for CI, dense enough
#: that excluded readers actually change the candidate sets.
DEFAULT_SCENARIO = dict(
    num_readers=16,
    num_tags=200,
    side=50.0,
    lambda_interference=10.0,
    lambda_interrogation=5.0,
    seed=11,
)

#: Default sweep axes (failure rate × miss rate) and solvers.
DEFAULT_FAIL_RATES: Tuple[float, ...] = (0.0, 0.05, 0.1, 0.2)
DEFAULT_MISS_RATES: Tuple[float, ...] = (0.0, 0.1)
DEFAULT_SOLVERS: Tuple[str, ...] = ("ptas", "ghc")

#: Scenario of the scale-tier chaos leg: big enough that the partition is
#: genuinely multi-cell (16 cells at side 160), small enough for CI.
SCALE_SCENARIO = dict(
    num_readers=120,
    num_tags=1500,
    side=160.0,
    lambda_interference=10.0,
    lambda_interrogation=5.0,
    seed=7,
)

#: Target cell count and solvers of the scale chaos leg.
SCALE_SHARD_CELLS = 16
SCALE_SOLVERS: Tuple[str, ...] = ("ghc",)


def _run_point(
    system,
    solver_name: str,
    schedule_seed: int,
    plan: Optional[FaultPlan],
    max_slots: int,
    shard=None,
):
    """One schedule under *plan* (None = fault-free), traced; returns the
    picklable ``(slots, complete, outcome, tags_read, metrics,
    wall_clock_s)``.  *shard* routes the run through the sharded driver
    (scale-tier leg)."""
    from repro.core.mcs import greedy_covering_schedule
    from repro.core.oneshot import get_solver
    from repro.experiments.figures import SOLVER_KWARGS

    solver = get_solver(solver_name, **SOLVER_KWARGS.get(solver_name, {}))
    collector = RunCollector()
    t0 = time.perf_counter()
    with recording(collector):
        result = greedy_covering_schedule(
            system, solver, seed=schedule_seed, faults=plan,
            max_slots=max_slots, shard=shard,
        )
    wall = time.perf_counter() - t0
    return (
        int(result.size),
        bool(result.complete),
        result.outcome.value,
        int(result.tags_read_total),
        collector.summary(),
        wall,
    )


def _chaos_record(
    label: str,
    solver_name: str,
    scenario: dict,
    rates: Tuple[float, float],
    point: tuple,
    coverable: int,
    baseline_slots: int,
) -> dict:
    """The ``bench="chaos"`` record of one grid point: *point* is
    :func:`_run_point`'s tuple under the ``(fail_rate, miss_rate)``
    *rates*, priced against the fault-free *baseline_slots*."""
    fail_rate, miss_rate = rates
    size, complete, outcome, tags_read, metrics, wall = point
    metrics["slots_to_completion"] = size
    metrics["complete"] = complete
    metrics["outcome"] = outcome
    metrics["coverage_fraction"] = tags_read / coverable if coverable else 1.0
    metrics["slowdown"] = size / baseline_slots
    metrics["fault_fail_rate"] = float(fail_rate)
    metrics["fault_miss_rate"] = float(miss_rate)
    return run_record(
        bench="chaos",
        label=f"{label}_f{fail_rate:g}_m{miss_rate:g}",
        solver=solver_name,
        scenario=scenario,
        metrics=metrics,
        wall_clock_s=wall,
    )


def run_chaos_sweep(
    solvers: Sequence[str] = DEFAULT_SOLVERS,
    fail_rates: Sequence[float] = DEFAULT_FAIL_RATES,
    miss_rates: Sequence[float] = DEFAULT_MISS_RATES,
    scenario_kwargs: Optional[dict] = None,
    fault_seed: int = 97,
    max_slots: int = 2048,
    workers: Optional[int] = None,
    shard_cells: Optional[int] = None,
) -> List[dict]:
    """Run the failure-rate × miss-rate grid for each solver; returns
    schema-valid ``bench="chaos"`` run records.

    Each solver's fault-free baseline (``fail_rate=0, miss_rate=0`` without
    a plan) is measured first and sets the denominator of every
    ``slowdown`` in that solver's group; the fault worlds are pinned by
    *fault_seed*, so equal arguments reproduce equal records (up to
    wall-clock).

    ``workers > 1`` runs each solver's grid points on one persistent
    :class:`~repro.perf.pool.WorkerPool` shared across all solvers (the
    baselines stay serial — they anchor every slowdown and are one point
    each).  Every point runs its own collector inside the worker and the
    records are assembled in grid order in the parent, so worker count
    never changes the records (up to wall-clock).

    *shard_cells* runs every point, baseline included, through the sharded
    driver with ``shard=ShardSpec(cells=shard_cells, workers=workers)``
    (the scale-tier leg, ``rfid-sched chaos --scale``): labels gain an
    ``s_`` prefix, the record scenario carries ``shard_cells``, and the
    grid runs serially in the parent, since the parallelism lives inside
    each sharded run.  The sharded baseline anchors every slowdown, so the
    ratio prices the fault world, not the sharding.
    """
    from repro.deployment.scenario import Scenario
    from repro.shard.spec import ShardSpec

    scenario = Scenario(**(scenario_kwargs or DEFAULT_SCENARIO))
    system = scenario.build()
    coverable = int(system.covered_by_any().sum())
    pairs = [(f, m) for f in fail_rates for m in miss_rates]
    record_scenario = dict(
        scenario_kwargs or DEFAULT_SCENARIO, fault_seed=fault_seed
    )
    shard = None
    if shard_cells is not None:
        shard = ShardSpec(cells=shard_cells, workers=workers)
        record_scenario["shard_cells"] = shard_cells

    def _make_grid_fn(solver_name: str):
        def run_grid_point(pair):
            fail_rate, miss_rate = pair
            plan = FaultPlan.uniform_flaky(
                system.num_readers,
                fail_rate,
                miss_rate=miss_rate,
                seed=fault_seed,
            )
            return _run_point(
                system, solver_name, scenario.seed, plan, max_slots, shard
            )

        return run_grid_point

    grid_fns = {name: _make_grid_fn(name) for name in solvers}
    records: List[dict] = []
    # a sharded point holds its own pool, so a sharded grid runs serially
    with WorkerPool(workers if shard is None else None) as pool:
        for fn in grid_fns.values():
            pool.register(fn)  # before the first map: closures must fork
        for solver_name in solvers:
            baseline = _run_point(
                system, solver_name, scenario.seed, None, max_slots, shard
            )
            baseline_slots = max(1, baseline[0])
            outputs = pool.map(grid_fns[solver_name], pairs)
            label = solver_name if shard is None else f"s_{solver_name}"
            records += [
                _chaos_record(
                    label, solver_name, record_scenario, pair, out,
                    coverable, baseline_slots,
                )
                for pair, out in zip(pairs, outputs)
            ]
    return records


def format_chaos_table(records: Sequence[dict]) -> str:
    """Human-readable coverage-vs-failure-rate table, one row per record."""
    rows = [
        f"{'solver':<12} {'fail':>5} {'miss':>5} {'slots':>6} "
        f"{'slowdown':>9} {'coverage':>9} {'outcome':<10} "
        f"{'failed':>7} {'missed':>7}"
    ]
    for r in records:
        m = r["metrics"]
        rows.append(
            f"{r['solver']:<12} "
            f"{m['fault_fail_rate']:>5.2f} {m['fault_miss_rate']:>5.2f} "
            f"{m['slots_to_completion']:>6d} "
            f"{m['slowdown']:>9.2f} {m['coverage_fraction']:>9.3f} "
            f"{m['outcome']:<10} "
            f"{m.get('readers_failed', 0):>7d} {m.get('reads_missed', 0):>7d}"
        )
    if len(rows) == 1:
        rows.append("(no chaos records)")
    return "\n".join(rows)

