"""Exact Maximum Weighted Feasible Scheduling Set by branch and bound.

The MWFS objective is *not* monotone under set growth — Figure 2 of the
paper shows activating fewer readers can serve more tags — so an MWFS need
not be a maximal independent set, and maximal-IS enumeration would be
unsound.  We therefore search the full include/exclude tree over candidate
readers, pruned by:

* feasibility — including a reader removes its interference-graph
  neighbours from the candidate pool;
* a weight upper bound — a tag covered twice by the chosen prefix can never
  count again, a tag covered once still counts, and an uncovered tag counts
  only if some remaining candidate covers it.  The bound is monotone along
  the tree, making the prune sound.

The same routine doubles as the *local* MWFS used by Algorithms 2 and 3
inside r-hop balls (where the candidate pool is small by the growth-bounded
property), via the ``candidates``/``oracle``/``conflict`` hooks.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.oneshot import OneShotResult, make_result
from repro.model.system import RFIDSystem
from repro.obs.events import CandidateEvaluation, get_recorder
from repro.perf.backends import kernel_for
from repro.perf.cache import conflict_bits
from repro.perf.incremental import GeneralizedWeightClimber
from repro.util.rng import RngLike


class SearchBudgetExceeded(RuntimeError):
    """Raised when the branch-and-bound node budget is exhausted and
    ``on_budget='raise'``; with ``on_budget='best'`` the incumbent is
    returned instead (flagged in ``meta['budget_exhausted']``)."""


def solve_mwfs_masks(
    candidates: Sequence[int],
    oracle,
    conflict_fn,
    max_nodes: int = 1_000_000,
    warm_start: Optional[Sequence[int]] = None,
    kernel=None,
) -> Tuple[List[int], int, bool]:
    """Core search over *candidates* with pluggable structures.

    Parameters
    ----------
    candidates:
        Reader ids to consider (any iterable of ints).
    oracle:
        The weight engine holding coverage masks and the unread mask: a
        :class:`~repro.perf.incremental.GeneralizedWeightClimber`, or a
        :class:`~repro.model.weights.WeightedTagOracle` for valued tags.
        Either serves ``solo_weight``, ``weight_of``, ``reset``,
        ``push``/``pop``, ``current_weight`` and ``upper_bound_with``.
    conflict_fn:
        ``conflict_fn(i, j) -> bool`` — True iff readers conflict (are
        adjacent in the interference graph).
    max_nodes:
        Search-tree node budget.
    warm_start:
        Optional known-feasible subset of *candidates* (e.g. the previous
        MCS slot's surviving active set).  Seeds the incumbent at one below
        its weight, so the branch-and-bound prunes against it from node one
        without ever excluding a strictly-better or equal-and-earlier set —
        the returned set is identical to a cold search that completes within
        budget, reached with fewer nodes.
    kernel:
        Optional :class:`~repro.perf.backends.NumpyKernel` built from the
        same system as *oracle*'s masks; batches the solo-weight ordering
        pass.  The DFS itself stays on the engine's sequential push/pop
        state — its include/exclude structure is inherently serial — so
        node counts and the returned set do not depend on the kernel
        (``docs/backends.md``).

    Returns
    -------
    (best_set, best_weight, exhausted):
        The best feasible set found, its weight, and whether the budget ran
        out before the search completed.
    """
    # Order by decreasing solo weight: good incumbents early → strong prunes.
    if kernel is not None:
        cand_list = [int(c) for c in candidates]
        solo = kernel.solo_weights(oracle.unread_mask, cand_list)
        order = sorted(
            range(len(cand_list)),
            key=lambda i: (-int(solo[i]), cand_list[i]),
        )
        cands = [cand_list[i] for i in order]
    else:
        cands = sorted(
            (int(c) for c in candidates),
            key=lambda c: (-oracle.solo_weight(c), c),
        )
    oracle.reset()
    best_set: List[int] = []
    best_weight = 0
    warm_weight = None
    if warm_start:
        warm = [int(c) for c in warm_start]
        w0 = oracle.weight_of(warm)
        if w0 > 0:
            # The first DFS node of weight >= w0 replaces this placeholder
            # (the warm set itself is in the searched tree, so one exists
            # within budget); the placeholder is only ever *returned* when
            # the node budget cuts the search short of any such node.
            best_set = list(warm)
            best_weight = w0 - 1
            warm_weight = w0
    chosen: List[int] = []
    nodes_visited = 0
    exhausted = False

    def recurse(pool: List[int]) -> None:
        nonlocal best_set, best_weight, nodes_visited, exhausted
        if exhausted:
            return
        nodes_visited += 1
        if nodes_visited > max_nodes:
            exhausted = True
            return
        w = oracle.current_weight()
        if w > best_weight or (w == best_weight and not best_set and chosen):
            best_weight = w
            best_set = list(chosen)
        if not pool:
            return
        if oracle.upper_bound_with(pool) <= best_weight:
            return
        head, rest = pool[0], pool[1:]
        # Branch 1: include head.
        chosen.append(head)
        oracle.push(head)
        recurse([c for c in rest if not conflict_fn(head, c)])
        oracle.pop()
        chosen.pop()
        # Branch 2: exclude head.
        recurse(rest)

    recurse(cands)
    oracle.reset()
    if warm_weight is not None and best_weight == warm_weight - 1:
        best_weight = warm_weight  # warm placeholder survived: report truthfully
    rec = get_recorder()
    if rec.enabled:
        rec.emit(CandidateEvaluation(context="exact.bnb", count=nodes_visited))
    return best_set, best_weight, exhausted


def exact_mwfs(
    system: RFIDSystem,
    unread: Optional[np.ndarray] = None,
    seed: RngLike = None,  # accepted for interface uniformity; deterministic
    candidates: Optional[Iterable[int]] = None,
    max_nodes: int = 1_000_000,
    on_budget: str = "best",
    oracle: Optional[GeneralizedWeightClimber] = None,
    context=None,
) -> OneShotResult:
    """Exact (within *max_nodes*) MWFS for the One-Shot Schedule Problem.

    With default budget this is exact for the interference graphs the tests
    use (n ≤ ~24 dense, larger when sparse); ``meta['budget_exhausted']``
    reports whether the search completed.

    Parameters
    ----------
    candidates:
        Restrict the search to this reader subset (Algorithms 2/3 pass
        r-hop balls).  Defaults to all readers.
    on_budget:
        ``'best'`` returns the incumbent when the node budget is exhausted;
        ``'raise'`` raises :class:`SearchBudgetExceeded`.
    oracle:
        Reuse a prebuilt climber over *system* and *unread* (one is built
        per call otherwise).
    context:
        Optional :class:`~repro.perf.slotdelta.ScheduleContext`.  Retired
        readers (zero remaining covered count) are dropped from the
        candidate pool — they sort last with solo weight 0, so the first
        strict-improvement incumbent never contains one and the returned set
        is unchanged — and the previous slot's surviving active set seeds
        the incumbent (see :func:`solve_mwfs_masks`).
    """
    if on_budget not in ("best", "raise"):
        raise ValueError(f"on_budget must be 'best' or 'raise', got {on_budget!r}")
    if candidates is None:
        candidates = range(system.num_readers)
    warm: Optional[list] = None
    if context is not None:
        candidates = [c for c in candidates if context.is_live(c)]
        pool = set(candidates)
        warm = [c for c in context.warm_start() if c in pool]
    if oracle is None:
        oracle = GeneralizedWeightClimber(system, unread)
    adj = conflict_bits(system)
    kernel = kernel_for(system)

    best_set, best_weight, exhausted = solve_mwfs_masks(
        candidates,
        oracle,
        lambda i, j: bool(adj[i] >> j & 1),
        max_nodes=max_nodes,
        warm_start=warm,
        kernel=kernel,
    )
    if exhausted and on_budget == "raise":
        raise SearchBudgetExceeded(
            f"exact MWFS exceeded {max_nodes} search nodes"
        )
    return make_result(
        system,
        best_set,
        unread,
        solver="exact",
        budget_exhausted=exhausted,
        reported_weight=best_weight,
    )


def weighted_mwfs(
    system: RFIDSystem,
    tag_values: np.ndarray,
    unread: Optional[np.ndarray] = None,
    candidates: Optional[Iterable[int]] = None,
    max_nodes: int = 1_000_000,
) -> OneShotResult:
    """Exact *value-weighted* MWFS: maximise the total value of well-covered
    tags (priority-inventory extension; Definition 3 is the all-ones case).

    The weighted objective keeps the structural properties the search needs
    (subadditivity, the monotone upper bound), so the same branch and bound
    applies with a :class:`~repro.model.weights.WeightedTagOracle`.
    ``meta['weighted_value']`` carries the achieved value; the result's
    ``weight`` field remains the plain tag count for comparability.
    """
    from repro.model.weights import WeightedTagOracle

    if candidates is None:
        candidates = range(system.num_readers)
    oracle = WeightedTagOracle(system, tag_values, unread)
    adj = conflict_bits(system)
    best_set, best_value, exhausted = solve_mwfs_masks(
        candidates,
        oracle,
        lambda i, j: bool(adj[i] >> j & 1),
        max_nodes=max_nodes,
    )
    return make_result(
        system,
        best_set,
        unread,
        solver="weighted-exact",
        budget_exhausted=exhausted,
        weighted_value=float(best_value),
    )
