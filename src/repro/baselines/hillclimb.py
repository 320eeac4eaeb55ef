"""Greedy Hill-Climbing (GHC) baseline, as specified in Section VI.

"At each step, we select a reader to add to current active reader set, in
order to maximize the incremental weight together with other active readers
at this time-slot.  Then we keep adding the reader to the active set one by
one recursively until the weight starts to decrease (the incremental weight
becomes negative) due to various collisions."

GHC does **not** enforce feasibility — it may activate readers that put
others into RTc; the generalised weight oracle (operational-reader rule of
Definition 1) charges it for that, which is the intended handicap of this
baseline.

The climb keeps its state across steps in a
:class:`~repro.perf.incremental.GeneralizedWeightClimber`: adding a reader
updates the coverage masks, the well-covered union, the silenced and
operational reader sets and the per-reader fresh counts, so no step
rebuilds them from the active list.  A candidate's gain never exceeds its
fresh count (the unread tags no active reader covers) — nor 0 under the
weight rule once an active reader silences it — and that bound never
rises as the set grows.  So a step over a wide frontier scores exactly
only the ``BATCH_MIN`` best bounds and then the candidates whose bound can
still reach the best gain; every candidate that could win or tie is
scored, and the lowest-id maximum — the scalar scan's strict-improvement
winner — is unchanged.  Frontiers below ``BATCH_MIN`` are scored whole.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.oneshot import OneShotResult, make_result
from repro.model.system import RFIDSystem
from repro.perf.backends import kernel_for, resolve_backend
from repro.perf.backends.numpy_batched import BATCH_MIN
from repro.perf.incremental import GeneralizedWeightClimber
from repro.perf.packed import bigint_to_bool
from repro.util.rng import RngLike


def greedy_hill_climbing(
    system: RFIDSystem,
    unread: Optional[np.ndarray] = None,
    seed: RngLike = None,  # accepted for interface uniformity; deterministic
    require_feasible: bool = False,
    gain_mode: str = "weight",
    context=None,
    backend: Optional[str] = None,
) -> OneShotResult:
    """One-shot GHC: grow the active set by best incremental gain.

    Parameters
    ----------
    require_feasible:
        When True, only readers independent from the current set are
        eligible (a stricter variant used in ablations); the paper's GHC
        uses False.
    gain_mode:
        ``"weight"`` (default) scores a candidate by the true incremental
        weight ``w(X ∪ {r}) − w(X)`` — the paper's wording, and a strong
        heuristic because the weight oracle already charges for RTc/RRc.
        ``"coverage"`` scores by the candidate's raw new-coverage count and
        only *stops* on an actual weight decrease — a collision-naive
        climber that blunders into interference, closer to how far below
        the proposed algorithms the paper plots GHC.  Kept as an ablation
        (see EXPERIMENTS.md).
    context:
        Optional :class:`~repro.perf.slotdelta.ScheduleContext`.  Retired
        readers are skipped in each scan: a reader covering no unread tag
        adds only interference, so its weight gain is ≤ 0 and its coverage
        gain is 0 — never above the positive-only ``best_gain`` threshold —
        and the climb path is unchanged.
    backend:
        Kernel name, validated by
        :func:`repro.perf.backends.resolve_backend` (``None`` or
        ``'numpy'``).  The candidates a step scores are evaluated through
        the :class:`~repro.perf.backends.NumpyKernel`; taking the largest
        gain at the lowest reader id reproduces the strict-improvement
        scalar scan exactly (``docs/backends.md``).
    """
    if gain_mode not in ("weight", "coverage"):
        raise ValueError(f"gain_mode must be 'weight' or 'coverage', got {gain_mode!r}")
    # The climber carries the coverage masks, the operational (RTc) state
    # and every reader's fresh count across the whole climb; its weights
    # are bit-identical to system.weight(active + [r], unread).
    climber = GeneralizedWeightClimber(system, unread)
    resolve_backend(backend)
    kernel = kernel_for(system)
    by_weight = gain_mode == "weight"

    def score(cands):
        if by_weight:
            return climber.weights_with_many(cands, kernel) - climber.current_weight()
        return climber.new_coverage_many(cands, kernel)

    def bound(cands):
        # No gain exceeds the fresh tags a candidate would read itself, and
        # under the weight rule a silenced candidate reads none of them.
        fresh = climber.fresh[cands]
        if by_weight:
            fresh[bigint_to_bool(climber.silenced, system.num_readers)[cands]] = 0
        return fresh

    # Readers the climb may still add: not active, and (with a context)
    # still covering an unread tag.
    eligible = (
        context.remaining_counts > 0
        if context is not None
        else np.ones(system.num_readers, dtype=bool)
    )

    while True:
        cands = np.flatnonzero(eligible)
        if require_feasible and climber.active:
            cands = np.asarray(
                kernel.filter_compatible(cands, climber.active), dtype=np.intp
            )
        if not cands.size:
            break
        best_gain, best_reader = _best_candidate(cands, bound, score)
        if best_gain <= 0:
            break
        # Collision-naive: only an actual weight drop stops the climb.
        if not by_weight and climber.weight_with(best_reader) < climber.current_weight():
            break
        climber.add(best_reader)
        eligible[best_reader] = False

    # the finished climber already holds the weight and the silenced set
    return make_result(
        system,
        climber.active,
        unread,
        climber=climber,
        solver="ghc",
        require_feasible=require_feasible,
        gain_mode=gain_mode,
    )


def _best_candidate(cands, bound, score):
    """``(gain, reader)`` of the largest *score* among *cands* (ascending
    ids), lowest id on ties, scoring exactly only the candidates whose
    *bound* — an upper bound on the gain that never rises as the active
    set grows — can still win.

    Frontiers below ``BATCH_MIN`` are scored whole.  Larger ones score the
    ``BATCH_MIN`` best bounds first, then every other candidate whose bound
    reaches the best gain found (ties included, so the lowest-id maximum is
    unchanged) or 1 (a climb stops on a non-positive gain)."""
    if cands.size < BATCH_MIN:
        gains = score(cands)
        idx = int(np.argmax(gains))  # first maximum: the lowest id
        return int(gains[idx]), int(cands[idx])
    bounds = bound(cands)
    order = np.argsort(-bounds, kind="stable")
    top, rest = order[:BATCH_MIN], order[BATCH_MIN:]
    gains = score(cands[top])
    rest = rest[bounds[rest] >= max(int(gains.max()), 1)]
    picked = np.concatenate([top, rest])
    if rest.size:
        gains = np.concatenate([gains, score(cands[rest])])
    best = gains.max()
    return int(best), int(cands[picked[gains == best]].min())
