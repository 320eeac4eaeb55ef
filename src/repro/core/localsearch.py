"""Local-search / simulated-annealing one-shot solver (extension).

A strong anytime heuristic for MWFS that needs neither locations (like
Algorithm 2/3) nor the interference graph alone — it uses the same global
weight oracle GHC does, but escapes GHC's local optima with remove/swap
moves and an annealing schedule:

* **add**: insert a reader independent of the current set;
* **drop**: remove a reader (this is what GHC cannot do — and exactly the
  move Figure 2 requires: dropping reader B raises the weight);
* **swap**: replace a reader with one of its interference-graph neighbours.

Moves that improve the weight are always taken; worsening moves are taken
with probability ``exp(Δ/T)`` under a geometric cooling schedule.  Restarts
from randomized greedy starts.  Used in the ablations as the "how far can a
generic metaheuristic get" yardstick against the paper's structured
algorithms.
"""

from __future__ import annotations

import math
from typing import List, Optional, Set

import numpy as np

from repro.core.oneshot import OneShotResult, make_result
from repro.model.system import RFIDSystem
from repro.obs.events import CandidateEvaluation, get_recorder
from repro.perf.backends import kernel_for
from repro.perf.incremental import GeneralizedWeightClimber
from repro.util.rng import RngLike, as_rng


def _random_greedy_start(
    system: RFIDSystem,
    oracle: GeneralizedWeightClimber,
    rng: np.random.Generator,
    kernel,
) -> List[int]:
    """Randomized greedy seed: scan readers in solo-weight-biased random
    order, keep what stays independent."""
    n = system.num_readers
    solos = kernel.solo_weights(oracle.unread_mask, range(n)).astype(float)
    # noisy-greedy ordering: multiplicative uniform noise on the solo weight
    order = np.argsort(-((solos + 1e-9) * rng.random(n)))
    conflict = system.conflict
    chosen: List[int] = []
    for r in order:
        r = int(r)
        if not chosen or not conflict[r, chosen].any():
            chosen.append(r)
    return chosen


def local_search_mwfs(
    system: RFIDSystem,
    unread: Optional[np.ndarray] = None,
    seed: RngLike = None,
    iterations: int = 3_000,
    restarts: int = 5,
    t_initial: float = 3.0,
    cooling: float = 0.995,
) -> OneShotResult:
    """Simulated-annealing search over feasible scheduling sets.

    Only the greedy-seed solo-weight scan goes through the kernel; the
    annealing move loop is untouched, so the ``rng`` stream is too
    (``docs/backends.md``).

    Parameters
    ----------
    iterations:
        Moves attempted per restart.
    restarts:
        Independent annealing runs (best result kept).
    t_initial / cooling:
        Geometric temperature schedule ``T ← cooling·T`` per move.
    """
    if iterations <= 0 or restarts <= 0:
        raise ValueError("iterations and restarts must be > 0")
    if not 0 < cooling < 1:
        raise ValueError(f"cooling must be in (0, 1), got {cooling}")
    rng = as_rng(seed)
    n = system.num_readers
    if n == 0:
        return make_result(system, [], unread, solver="localsearch")
    oracle = GeneralizedWeightClimber(system, unread)
    conflict = system.conflict
    kernel = kernel_for(system)

    best_global: List[int] = []
    best_global_w = -1
    moves_scored = 0

    for _ in range(restarts):
        current: Set[int] = set(_random_greedy_start(system, oracle, rng, kernel))
        current_w = oracle.weight_of(current)
        best, best_w = sorted(current), current_w
        temp = t_initial
        for _ in range(iterations):
            move = rng.integers(0, 3)
            trial: Optional[Set[int]] = None
            if move == 0:  # add
                outside = [
                    r
                    for r in range(n)
                    if r not in current
                    and (not current or not conflict[r, sorted(current)].any())
                ]
                if outside:
                    trial = current | {int(rng.choice(outside))}
            elif move == 1 and current:  # drop
                victim = int(rng.choice(sorted(current)))
                trial = current - {victim}
            elif move == 2 and current:  # swap with a neighbour
                member = int(rng.choice(sorted(current)))
                neighbors = np.flatnonzero(conflict[member])
                if len(neighbors):
                    incoming = int(rng.choice(neighbors))
                    candidate = (current - {member}) | {incoming}
                    rest = sorted(candidate - {incoming})
                    if not rest or not conflict[incoming, rest].any():
                        trial = candidate
            if trial is None:
                temp *= cooling
                continue
            trial_w = oracle.weight_of(trial)
            moves_scored += 1
            delta = trial_w - current_w
            if delta >= 0 or rng.random() < math.exp(delta / max(temp, 1e-12)):
                current, current_w = trial, trial_w
                if current_w > best_w:
                    best, best_w = sorted(current), current_w
            temp *= cooling
        if best_w > best_global_w:
            best_global, best_global_w = best, best_w

    rec = get_recorder()
    if rec.enabled:
        rec.emit(CandidateEvaluation(context="localsearch.moves", count=moves_scored))
    return make_result(
        system,
        best_global,
        unread,
        solver="localsearch",
        iterations=iterations,
        restarts=restarts,
    )
