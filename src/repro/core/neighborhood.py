"""Algorithm 2 — centralized One-Shot scheduling without location
information (Section V-A).

Operates purely on the interference graph (Definition 7) and the per-reader
tag-coverage information; no coordinates are consulted.  Following Sakai et
al.'s greedy MWIS scheme [15]:

repeat until no readers remain:
  1. pick the remaining reader ``v`` of maximum solo weight;
  2. grow ``r`` from 0, computing the local MWFS ``Γ_r(v)`` inside the r-hop
     ball ``N(v)^r`` (within the remaining graph), while the growth
     condition ``w(Γ_{r+1}) ≥ ρ·w(Γ_r)`` holds (ρ = 1 + ε);
  3. commit ``Γ_r̄`` for the first violating ``r̄``, and delete the *larger*
     ball ``N(v)^{r̄+1}`` — one extra hop guarantees sets committed in
     different iterations are non-adjacent, keeping the union feasible.

Theorem 4: the union is a feasible scheduling set of weight at least
``1/ρ`` of the optimum.  Theorem 3 bounds ``r̄`` by a constant on
growth-bounded interference graphs; we additionally stop growing when the
ball saturates its connected component (mandatory for termination when the
local weight is zero, e.g. every nearby tag already read).
"""

from __future__ import annotations

from typing import List, Optional, Set

import numpy as np

from repro.core.exact import solve_mwfs_masks
from repro.core.oneshot import OneShotResult, make_result
from repro.model.interference import adjacency_lists
from repro.model.system import RFIDSystem
from repro.perf.backends import kernel_for
from repro.perf.cache import conflict_bits
from repro.perf.incremental import GeneralizedWeightClimber
from repro.util.rng import RngLike
from repro.util.validation import check_in_range


def _ball_within(
    adj: List[np.ndarray], alive: Set[int], source: int, r: int
) -> Set[int]:
    """r-hop ball around *source* in the subgraph induced by *alive*."""
    dist = {source: 0}
    frontier = [source]
    for hop in range(r):
        nxt = []
        for u in frontier:
            for v in adj[u]:
                v = int(v)
                if v in alive and v not in dist:
                    dist[v] = hop + 1
                    nxt.append(v)
        if not nxt:
            break
        frontier = nxt
    return set(dist)


def centralized_location_free(
    system: RFIDSystem,
    unread: Optional[np.ndarray] = None,
    seed: RngLike = None,  # accepted for interface uniformity; deterministic
    rho: float = 1.5,
    max_radius: Optional[int] = None,
    ball_node_budget: int = 200_000,
    oracle: Optional[GeneralizedWeightClimber] = None,
    context=None,
) -> OneShotResult:
    """Algorithm 2: location-free centralized MWFS approximation.

    The kernel batches the head solo-weight scan and the local-MWFS
    candidate ordering (``docs/backends.md``).

    Parameters
    ----------
    rho:
        Growth threshold ``ρ = 1 + ε > 1``.  Smaller ε → better
        approximation (``w(X) ≥ w(OPT)/ρ``) but larger explored balls.
    max_radius:
        Optional hard cap on ``r̄`` (Algorithm 3 uses its constant ``c``
        here); ``None`` grows until the condition fails or the component
        saturates.
    ball_node_budget:
        Branch-and-bound budget for each local MWFS computation.
    context:
        Optional :class:`~repro.perf.slotdelta.ScheduleContext`.  Retired
        readers must stay in ``alive`` — deleting them would change ball
        connectivity and hence which readers later iterations see — so
        pruning is confined to two provably output-identical moves: retired
        readers are dropped from each local MWFS candidate pool (they sort
        last with solo weight 0 and never enter the first
        strict-improvement winner), and the head loop stops once the
        maximum solo weight hits 0 (from that point the reference run only
        commits retired singletons, which serve no tag).
    """
    check_in_range("rho", rho, 1.0, float("inf"), low_open=True)
    n = system.num_readers
    if n == 0:
        return make_result(system, [], unread, solver="centralized", rho=rho)
    if oracle is None:
        oracle = GeneralizedWeightClimber(system, unread)
    adj = adjacency_lists(system)
    conflict_rows = conflict_bits(system)
    kernel = kernel_for(system)

    alive: Set[int] = set(range(n))
    solution: List[int] = []
    iterations = []

    def local_mwfs(candidates) -> List[int]:
        if context is not None:
            candidates = [c for c in candidates if context.is_live(c)]
        best, _w, _ex = solve_mwfs_masks(
            candidates,
            oracle,
            lambda i, j: bool(conflict_rows[i] >> j & 1),
            max_nodes=ball_node_budget,
            kernel=kernel,
        )
        return best

    while alive:
        # Step 1: remaining reader of maximum solo weight (ties: lowest id)
        # — one batched scan; the first maximum in ascending-id order is
        # exactly min(alive, key=(-solo, id)).
        alive_sorted = sorted(alive)
        solos = kernel.solo_weights(oracle.unread_mask, alive_sorted)
        v = alive_sorted[int(np.argmax(solos))]
        if context is not None and int(solos.max()) == 0:
            # Every remaining reader is retired: the reference run would now
            # commit zero-weight singletons one component at a time, none of
            # which serves a tag.  Stop — the served-tag set is unchanged.
            break

        # Step 2: grow the ball while the weight multiplies by >= rho.
        r = 0
        ball = {v}
        gamma = local_mwfs(ball)
        w_gamma = oracle.weight_of(gamma)
        while max_radius is None or r < max_radius:
            next_ball = _ball_within(adj, alive, v, r + 1)
            if next_ball == ball:
                break  # component saturated — nothing more to gain
            gamma_next = local_mwfs(next_ball)
            w_next = oracle.weight_of(gamma_next)
            if w_next < rho * w_gamma or w_gamma == 0 and w_next == 0:
                break  # growth condition violated at r+1 → commit Γ_r
            r += 1
            ball = next_ball
            gamma = gamma_next
            w_gamma = w_next

        # Step 3: commit Γ_r̄ and delete N(v)^{r̄+1}.
        solution.extend(gamma)
        removal = _ball_within(adj, alive, v, r + 1)
        alive -= removal
        iterations.append(
            {"head": v, "radius": r, "gamma_size": len(gamma), "weight": w_gamma}
        )

    return make_result(
        system,
        solution,
        unread,
        solver="centralized",
        rho=rho,
        iterations=iterations,
    )
