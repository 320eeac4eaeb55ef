"""Scale-tier benchmark matrix behind ``rfid-sched bench --scale``.

Appends family-``scale`` records to ``BENCH_scale.json`` (the same
append-only trajectory discipline as the oneshot/mcs families; see
:mod:`repro.obs.bench`).  The matrix is built around three certificates:

* the **identity pair** — the same pinned scenario run unsharded and with
  ``ShardSpec(cells=1)`` under the *same label*, so the
  ``bench compare --against`` work-counter drift gate doubles as a
  bit-identity certificate for the one-cell path, which builds no
  partition;
* the **quick pair** — a ≈2·10³-reader / 5·10⁴-tag point run unsharded and
  sharded (different labels, so each forms its own trajectory), recording
  the scale tier's solver wall-clock win and its coverage equivalence;
* the **full point** — the 10⁴-reader / 10⁶-tag deployment through the
  array-first driver (:func:`repro.shard.scale.run_scale_schedule`),
  bounded to a fixed slot budget so CI can afford it.

Like the oneshot/mcs families, each point is measured by
:func:`repro.obs.bench.measure_run`: the
:class:`~repro.obs.bench.PeakMemory` metrics come from a separate,
untimed pass, so the recorded wall clock is never measured under
tracemalloc.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.bench import measure_run
from repro.shard.scale import ScaleDeployment, run_scale_schedule
from repro.shard.spec import ShardSpec


@dataclass(frozen=True)
class ScalePoint:
    """One scenario point of the scale matrix.

    ``driver`` selects the execution path: ``"mcs"`` runs
    :func:`repro.core.mcs.greedy_covering_schedule` over a fully built
    system (optionally sharded via ``shard_cells``), ``"array"`` runs the
    sparse :func:`repro.shard.scale.run_scale_schedule` straight from
    arrays (``shard_cells`` then must yield a partition of two or more
    cells).
    ``shard_cells=None`` means unsharded; note ``0`` requests auto-sizing
    (finest safe cells), which is only meaningful for the array driver.
    ``workers`` applies to the ``"mcs"`` driver, whose sharded parallel
    solves run on one persistent :class:`~repro.perf.pool.WorkerPool` per
    run; the array driver solves cells in process and ignores it.
    """

    label: str
    solver: str
    driver: str
    num_readers: int
    num_tags: int
    side: float
    lambda_interference: float
    lambda_interrogation: float
    seed: int
    shard_cells: Optional[int] = None
    workers: Optional[int] = None
    max_slots: Optional[int] = None

    def scenario_dict(self) -> dict:
        """The record's ``scenario`` payload: generator parameters plus the
        shard configuration (provenance for trajectory audits)."""
        return dict(
            num_readers=self.num_readers,
            num_tags=self.num_tags,
            side=self.side,
            lambda_interference=self.lambda_interference,
            lambda_interrogation=self.lambda_interrogation,
            seed=self.seed,
            driver=self.driver,
            shard_cells=self.shard_cells,
            workers=self.workers,
            max_slots=self.max_slots,
        )


def _scale_point(label: str, **kw) -> ScalePoint:
    kw.setdefault("solver", "ghc")
    kw.setdefault("driver", "mcs")
    return ScalePoint(label=label, **kw)


#: The bit-identity certificate: one pinned scenario, run unsharded then
#: with ``cells=1`` under the SAME label — the work-counter drift gate in
#: ``bench compare --against`` then enforces identical counters between the
#: unsharded and trivially-sharded drivers on every future run.
IDENT_POINTS: Tuple[ScalePoint, ...] = (
    _scale_point(
        "s_ident_r120t1500",
        num_readers=120, num_tags=1500, side=150.0,
        lambda_interference=10.0, lambda_interrogation=5.0, seed=7,
    ),
    _scale_point(
        "s_ident_r120t1500",
        num_readers=120, num_tags=1500, side=150.0,
        lambda_interference=10.0, lambda_interrogation=5.0, seed=7,
        shard_cells=1,
    ),
)

#: The quick-scale pair: the same ≈2·10³-reader / 5·10⁴-tag deployment
#: unsharded and sharded.  Distinct labels — wall-clock differs by design,
#: so they must form separate trajectories; coverage equivalence is
#: enforced by ``tests/test_scale_bench.py``.
QUICK_POINTS: Tuple[ScalePoint, ...] = IDENT_POINTS + (
    _scale_point(
        "s_quick_r2000t50k",
        num_readers=2000, num_tags=50_000, side=640.0,
        lambda_interference=10.0, lambda_interrogation=5.0, seed=4242,
        max_slots=60,
    ),
    _scale_point(
        "s_quick_r2000t50k+shard",
        num_readers=2000, num_tags=50_000, side=640.0,
        lambda_interference=10.0, lambda_interrogation=5.0, seed=4242,
        shard_cells=256, max_slots=60,
    ),
)

#: The full scale tier: 10⁴ readers / 10⁶ tags through the array-first
#: driver, auto-sized cells, one slot (the per-slot cost is the claim;
#: completing the schedule is the quick pair's job).
FULL_POINTS: Tuple[ScalePoint, ...] = QUICK_POINTS + (
    _scale_point(
        "s_full_r10000t1M+shard",
        driver="array",
        num_readers=10_000, num_tags=1_000_000, side=1414.2,
        lambda_interference=10.0, lambda_interrogation=5.0, seed=777,
        shard_cells=0, max_slots=1,
    ),
)


def _schedule_point(point: ScalePoint) -> None:
    """Schedule *point* once through its driver."""
    if point.driver == "array":
        deployment = ScaleDeployment(
            num_readers=point.num_readers,
            num_tags=point.num_tags,
            side=point.side,
            lambda_interference=point.lambda_interference,
            lambda_interrogation=point.lambda_interrogation,
            seed=point.seed,
        )
        spec = ShardSpec(
            cells=0 if point.shard_cells is None else point.shard_cells,
            workers=point.workers,
        )
        run_scale_schedule(
            deployment,
            spec,
            solver=point.solver,
            seed=point.seed,
            max_slots=point.max_slots,
        )
    elif point.driver == "mcs":
        from repro.core.mcs import greedy_covering_schedule
        from repro.core.oneshot import get_solver
        from repro.deployment.scenario import Scenario

        scenario = Scenario(
            num_readers=point.num_readers,
            num_tags=point.num_tags,
            side=point.side,
            lambda_interference=point.lambda_interference,
            lambda_interrogation=point.lambda_interrogation,
            seed=point.seed,
        )
        system = scenario.build()
        solver = get_solver(point.solver)
        spec = (
            ShardSpec(cells=point.shard_cells, workers=point.workers)
            if point.shard_cells is not None
            else None
        )
        greedy_covering_schedule(
            system,
            solver,
            seed=point.seed,
            max_slots=point.max_slots,
            shard=spec,
        )
    else:
        raise ValueError(f"unknown scale driver {point.driver!r}")


def run_scale_point(point: ScalePoint) -> dict:
    """Measure one scale point; returns a family-``scale`` run record.

    :func:`~repro.obs.bench.measure_run` takes the
    :class:`~repro.obs.bench.PeakMemory` metrics in an untimed pass, then
    the wall clock and work counters in a timed pass that covers the whole
    point: deployment build, partition and schedule.
    """
    return measure_run(
        "scale", point.label, point.solver, point.scenario_dict(),
        lambda: partial(_schedule_point, point),
        lambda _: {},
    )


def run_scale_matrix(
    points: Sequence[ScalePoint] = QUICK_POINTS,
) -> Dict[str, List[dict]]:
    """Run the scale points serially, in matrix order; returns records
    keyed by family (always ``{"scale": [...]}``, the shape
    :func:`repro.obs.bench.write_bench_files` consumes).

    Serial on purpose: the identity pair must append its unsharded record
    before its sharded twin (the drift gate compares against the *earlier*
    record of a label), and scale points are too large to co-schedule.
    """
    return {"scale": [run_scale_point(p) for p in points]}


def format_scale_table(records: Dict[str, List[dict]]) -> str:
    """Human-readable summary of a scale run, one row per record."""
    rows = [
        f"{'label':<26} {'cells':>6} {'slots':>6} {'tags':>8} "
        f"{'wall_s':>8} {'solver_s':>9} {'repairs':>8} {'peak_mb':>8}"
    ]
    for r in records.get("scale", ()):
        m = r["metrics"]
        rows.append(
            f"{r['label']:<26} "
            f"{m.get('shard_cells', '-')!s:>6} "
            f"{m['slots']:>6d} "
            f"{m['tags_read']:>8d} "
            f"{r['wall_clock_s']:>8.3f} "
            f"{m['solver_wall_clock_s']:>9.3f} "
            f"{m.get('shard_boundary_repairs', '-')!s:>8} "
            f"{m.get('peak_tracemalloc_kb', 0.0) / 1024.0:>8.1f}"
        )
    if len(rows) == 1:
        rows.append("(no scale records)")
    return "\n".join(rows)
