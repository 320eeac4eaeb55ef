"""Generic replicated parameter sweep.

A sweep varies one scalar parameter over a list of values; at each value the
``measure`` callback runs once per seed and returns a ``{metric: value}``
dict (one metric per algorithm, typically).  Results are aggregated per
(metric, value) into :class:`~repro.experiments.metrics.SeriesStats`.

``workers=N`` runs the grid points on forked worker processes.  Each point
is seeded by its own ``(value, seed)`` pair — never by execution order — and
results are merged back in grid order (values outer, seeds inner), so
``SweepResult.raw`` is byte-identical to a serial run.  The grid runs on a
:class:`~repro.perf.pool.WorkerPool`, which on fork-less platforms runs it
serially in process (with a RuntimeWarning) — the merge order and hence
``SweepResult.raw`` are unchanged.  Events emitted *inside* ``measure``
are relayed back from forked workers (:mod:`repro.obs.relay`); the
per-point ``SweepPoint`` events are emitted in the parent (see
``docs/performance.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.metrics import SeriesStats, aggregate
from repro.obs.events import SweepPoint, get_recorder
from repro.obs.spans import span
from repro.perf.pool import WorkerPool

Measure = Callable[[float, int], Mapping[str, float]]


@dataclass
class SweepResult:
    """Aggregated sweep output."""

    param_name: str
    param_values: List[float]
    metrics: List[str]
    stats: Dict[Tuple[str, float], SeriesStats]
    raw: Dict[Tuple[str, float], List[float]] = field(default_factory=dict)

    def series(self, metric: str) -> List[SeriesStats]:
        """The aggregated curve of one metric across the sweep."""
        return [self.stats[(metric, v)] for v in self.param_values]

    def means(self, metric: str) -> List[float]:
        """Mean curve of one metric across the sweep."""
        return [s.mean for s in self.series(metric)]


def run_sweep(
    param_name: str,
    param_values: Sequence[float],
    measure: Measure,
    seeds: Sequence[int],
    workers: Optional[int] = None,
) -> SweepResult:
    """Run *measure* over the grid ``param_values × seeds`` and aggregate.

    ``measure(value, seed)`` must return the same metric keys at every grid
    point (enforced), so the resulting series are rectangular.

    Parameters
    ----------
    workers:
        ``None``/``1`` runs serially (default); ``N > 1`` runs grid points
        on up to ``N`` forked processes, merging in grid order so the raw
        samples match the serial run byte-for-byte; ``-1`` uses the CPU
        count.  Runs serially where ``fork`` is unavailable.
    """
    if not param_values:
        raise ValueError("param_values must be non-empty")
    if not seeds:
        raise ValueError("seeds must be non-empty")

    grid = [(value, seed) for value in param_values for seed in seeds]

    def run_point(point):
        value, seed = point
        t0 = time.perf_counter()
        sample = measure(value, seed)
        return dict(sample), time.perf_counter() - t0

    # One whole-sweep span in the parent: events relayed from the pool
    # workers and the SweepPoint events attach to it.
    with span("sweep.run", param=param_name, points=len(grid)):
        with WorkerPool(workers) as pool:
            outcomes = pool.map(run_point, grid)

        rec = get_recorder()
        raw: Dict[Tuple[str, float], List[float]] = {}
        metric_names: List[str] = []
        for (value, seed), (sample, seconds) in zip(grid, outcomes):
            if rec.enabled:
                rec.emit(
                    SweepPoint(
                        param=param_name,
                        value=float(value),
                        seed=int(seed),
                        seconds=seconds,
                    )
                )
            if not metric_names:
                metric_names = list(sample)
            elif set(sample) != set(metric_names):
                raise ValueError(
                    f"measure returned inconsistent metrics at "
                    f"{param_name}={value}: "
                    f"{sorted(sample)} vs {sorted(metric_names)}"
                )
            for metric, obs in sample.items():
                raw.setdefault((metric, value), []).append(float(obs))

    stats = {key: aggregate(vals) for key, vals in raw.items()}
    return SweepResult(
        param_name=param_name,
        param_values=list(param_values),
        metrics=metric_names,
        stats=stats,
        raw=raw,
    )
