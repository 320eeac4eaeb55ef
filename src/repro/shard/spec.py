"""Sharding configuration and the interaction-radius cell-sizing rule.

The spatial decomposition (``docs/scale.md``) rests on one geometric fact:
two readers whose activation decisions can influence each other must be
within the **interaction radius**

.. math::

    H \\;=\\; \\max_i \\max(R_i,\\; 2\\gamma_i)

of each other — they conflict only if their distance is at most
``max(R_i, R_j) <= R_max``, and they can cover a common tag (a potential
reader–reader collision) only if their distance is at most
``gamma_i + gamma_j <= 2*gamma_max``.  Likewise a reader can affect a tag
only within ``gamma_max <= H``.  Choosing a square cell side of at least
``H`` therefore guarantees that everything influencing a cell's owned
readers and tags lives in the cell itself or its eight neighbours — the
**one-ring halo** contract that :mod:`repro.shard.partition` relies on.

This mirrors the locality theorem behind the paper's neighborhood solver
(``docs/paper_mapping.md``): a reader's activation decision depends only on
a bounded-radius ball around it.

The same locality argument carries the fault composition
(``docs/robustness.md``): every reader that can cover a cell-owned tag
lives inside that cell's subsystem, so when a reader is confirmed
permanently crashed its orphaned tags can be re-homed by a purely local
rescan — the incremental partition refresh rebuilds only the dirtied
cells.  A :class:`ShardSpec` therefore composes freely with
``faults=``/``policy=`` in both drivers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.util.validation import check_nonnegative_int, check_workers


def interaction_radius(
    interference_radii: np.ndarray, interrogation_radii: np.ndarray
) -> float:
    """The interaction radius ``H = max_i max(R_i, 2*gamma_i)``.

    Any pair of readers further apart than ``H`` is independent
    (Definition 2) *and* shares no coverable tag, so their activation
    decisions cannot interact.  Returns ``0.0`` for an empty deployment.
    """
    R = np.asarray(interference_radii, dtype=np.float64)
    gamma = np.asarray(interrogation_radii, dtype=np.float64)
    if R.size == 0:
        return 0.0
    return float(max(R.max(), 2.0 * gamma.max()))


@dataclass(frozen=True)
class ShardSpec:
    """Configuration of a sharded solve.

    Parameters
    ----------
    cells:
        Target number of spatial cells.  ``0`` (the default) auto-sizes the
        grid at the finest safe granularity — cell side equal to the
        interaction radius.  ``1`` requests no partition: the dense driver
        runs a direct full-system solve (bit-identical to the unsharded
        driver; certified by ``tests/test_shard.py``).  Values
        above 1 are a *target*: the actual side is clamped to at least the
        interaction radius, so the realised cell count never exceeds what
        the one-ring halo contract allows.  A float, boolean or negative
        value raises :class:`ValueError` here.
    workers:
        Dense sharded driver only
        (``greedy_covering_schedule(..., shard=)``): worker processes for
        concurrent cell solves on one persistent
        :class:`~repro.perf.pool.WorkerPool` per run, in the
        :func:`~repro.perf.parallel.resolve_workers` convention (``None``/
        ``0`` solves cells serially; negative means CPU count; a float,
        boolean or non-numeric value raises :class:`ValueError` here).
        Worker count never changes results — cell solves are merged in
        deterministic cell order.  The array-first
        :func:`~repro.shard.scale.run_scale_schedule` ignores it and
        always solves cells in process, where the pool lost to serial end
        to end (``docs/scale.md``).
    """

    cells: int = 0
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        check_nonnegative_int("cells", self.cells)
        if self.workers is not None:
            check_workers("workers", self.workers)

    def cell_side(
        self,
        interference_radii: np.ndarray,
        interrogation_radii: np.ndarray,
        extent: float,
    ) -> float:
        """The cell side length for a deployment of bounding-box area
        ``extent**2``: the side implied by the ``cells`` target, clamped
        from below to ``H`` so the one-ring halo contract always holds."""
        floor = interaction_radius(interference_radii, interrogation_radii)
        if self.cells > 1 and extent > 0.0:
            target = float(extent) / float(np.sqrt(self.cells))
            return max(target, floor)
        return floor
