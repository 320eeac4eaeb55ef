"""Algorithm 1 — PTAS for MWFS with location information (Section IV).

Structure (faithful to the paper):

1. Scale so the largest interference radius is ``1/2``; classify disks into
   levels by radius (:func:`repro.geometry.shifting.disk_levels`).
2. For every shift ``(r, s) ∈ [0, k)²`` build the shifted hierarchical
   subdivision, drop non-survive disks, and run a dynamic program over the
   relevant squares: ``MWFS(S, I)`` = best feasible set of survive disks of
   level ≥ level(S) inside ``S`` that is independent from the interface set
   ``I`` (already-chosen coarser disks intersecting ``S``).  The recurrence
   enumerates independent subsets ``D`` of the level-``level(S)`` disks
   inside ``S`` and recurses into the child squares that contain deeper
   disks, passing down ``(I ∪ D)`` restricted to each child.
3. Candidates are compared by their *actual* weight ``w(X)`` via the weight
   climber — exactly the ``if w(X) > w(MWFS(S, I))`` step of the paper's
   pseudocode, which is what handles the non-additivity
   ``w(X₁ ∪ X₂) ≤ w(X₁) + w(X₂)`` caused by RRc.
4. Return the best result over all ``k²`` shifts; Theorem 2 guarantees some
   shift preserves a ``(1 − 1/k)²`` fraction of the optimum weight.

Practical deviations (DESIGN.md §5): the theoretical per-square subset bound
Λ is replaced by a branch-and-bound solve on leaf squares plus a budgeted
best-first enumeration on internal squares.  Budgets are generous enough
that they never bind on the paper's 50-reader workload; when they do bind
the result is still a feasible set and ``meta['budget_exhausted']`` is set.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.exact import solve_mwfs_masks
from repro.core.oneshot import OneShotResult, make_result
from repro.geometry.shifting import ShiftedHierarchy, Square, scale_radii
from repro.model.system import RFIDSystem
from repro.obs.events import CandidateEvaluation, get_recorder
from repro.perf.backends import kernel_for, resolve_backend
from repro.perf.cache import conflict_bits, system_memo
from repro.perf.incremental import GeneralizedWeightClimber
from repro.perf.packed import pack_square_bool
from repro.util.rng import RngLike


def _enumerate_independent_subsets(
    cands: Sequence[int],
    conflict,
    max_size: Optional[int],
    budget: int,
) -> Iterator[Tuple[int, ...]]:
    """Yield pairwise-independent subsets of *cands* (the empty set first),
    include-first DFS so large/promising subsets appear early; stops after
    *budget* subsets.  *conflict* is either a boolean adjacency matrix or
    its packed per-reader bitmask rows (what the DP passes)."""
    adj = (
        pack_square_bool(conflict)
        if isinstance(conflict, np.ndarray)
        else conflict
    )
    yielded = 0

    def rec(prefix: List[int], pool: List[int]) -> Iterator[Tuple[int, ...]]:
        nonlocal yielded
        if yielded >= budget:
            return
        yielded += 1
        yield tuple(prefix)
        if max_size is not None and len(prefix) >= max_size:
            return
        for pos, head in enumerate(pool):
            if yielded >= budget:
                return
            compatible = [
                c for c in pool[pos + 1 :] if not adj[head] >> c & 1
            ]
            prefix.append(head)
            yield from rec(prefix, compatible)
            prefix.pop()

    yield from rec([], list(cands))


class _SquareIndex:
    """Interned square geometry of one ``(r, s)``-shifting, cached per
    ``(system, k, r, s)`` and shared by every slot of an MCS run.

    Each square holding a survive disk gets an int id in sorted
    :class:`Square` order (sorted ids are sorted squares).
    ``chains = [(i, ids)]`` gives survive disk ``i``'s square ids from level
    0 down to its own level; ``children[sid]`` the occupied child ids in
    :meth:`ShiftedHierarchy.children` order; ``full`` the unfiltered
    :meth:`view`."""

    def __init__(self, hierarchy: ShiftedHierarchy):
        self.h = hierarchy
        k, r, s = hierarchy.k, hierarchy.r, hierarchy.s
        levels = hierarchy.levels.tolist()
        centers = hierarchy.centers.tolist()
        disks = hierarchy.survive_indices().tolist()
        keys = []
        for i in disks:
            # _grid_cell's exact dyadic arithmetic, one ratio per coordinate
            xn, xd = centers[i][0].as_integer_ratio()
            yn, yd = centers[i][1].as_integer_ratio()
            keys.append([
                (lev, (xn * (k + 1) ** lev - r * xd) // (k * xd),
                 (yn * (k + 1) ** lev - s * yd) // (k * yd))
                for lev in range(levels[i] + 1)
            ])
        order = sorted({key for chain in keys for key in chain})
        ids = {key: sid for sid, key in enumerate(order)}
        self.squares = [Square(*key) for key in order]
        self.chains = [
            (i, [ids[key] for key in chain]) for i, chain in zip(disks, keys)
        ]
        children = [set() for _ in order]
        for _i, chain in self.chains:
            for parent, child in zip(chain, chain[1:]):
                children[parent].add(child)
        self.children = [sorted(c) for c in children]
        self._tested = [0] * len(order)
        self._hit = [0] * len(order)
        self.full = self.view()

    def view(self, live=None):
        """``(own, occupied, tops)`` over the survive disks with ``live(i)``
        (all when *live* is None): ``own[sid]`` = disks of the square's own
        level inside it (survive order), ``occupied[sid]`` = number of disks
        of that level or deeper inside it, ``tops`` = sorted occupied
        level-0 ids.  Filtering out retired readers keeps them from
        inflating the per-square enumerations."""
        own: List[List[int]] = [[] for _ in self.squares]
        occupied = [0] * len(self.squares)
        tops = set()
        for i, chain in self.chains:
            if live is not None and not live(i):
                continue
            for sid in chain:
                occupied[sid] += 1
            own[chain[-1]].append(i)
            tops.add(chain[0])
        return own, occupied, sorted(tops)

    def hits(self, sid: int, bits: int) -> int:
        """The readers of bitmask *bits* whose closed disk meets square *sid*
        (a child's interface); each untested bit is checked once with
        :meth:`ShiftedHierarchy.disk_intersects_square` and cached."""
        fresh = bits & ~self._tested[sid]
        if fresh:
            self._tested[sid] |= fresh
            sq = self.squares[sid]
            hit = 0
            while fresh:
                low = fresh & -fresh
                if self.h.disk_intersects_square(low.bit_length() - 1, sq):
                    hit |= low
                fresh ^= low
            self._hit[sid] |= hit
        return bits & self._hit[sid]


class _ShiftDP:
    """Dynamic program for one ``(r, s)``-shifting, on int square ids and
    reader-bitmask interfaces."""

    def __init__(
        self,
        index: _SquareIndex,
        view,
        oracle: GeneralizedWeightClimber,
        adj: Sequence[int],
        kernel,
        budgets: Tuple[Optional[int], int, int, int],
    ):
        self.index = index
        self.oracle = oracle
        self.adj = adj
        self.kernel = kernel
        (self.max_d_size, self.enum_budget, self.leaf_node_budget,
         self.call_budget) = budgets
        self.calls = 0
        self.budget_exhausted = False
        self.memo: Dict[Tuple[int, int], Tuple[int, ...]] = {}

        # The view is geometry; only the own-list ordering — decreasing solo
        # weight for enumeration quality — depends on the current unread
        # mask, so re-sort per solve in one batched solo-weight pass.
        own_static, self.occupied, self.top_squares = view
        disks = sorted(d for lst in own_static for d in lst)
        solo_arr = kernel.solo_weights(oracle.unread_mask, disks) if disks else ()
        solo = dict(zip(disks, (int(w) for w in solo_arr)))
        self.own: List[List[int]] = [
            sorted(lst, key=lambda d: (-solo[d], d)) for lst in own_static
        ]

    # ------------------------------------------------------------------
    def solve(self) -> List[int]:
        """Union of MWFS(S, ∅) over relevant level-0 squares — disks in
        distinct squares are disjoint, hence independent, so the union is
        feasible."""
        return [d for sid in self.top_squares for d in self.mwfs(sid, 0)]

    def _best_own(self, own_ok: List[int]) -> Tuple[int, ...]:
        """Budgeted exact MWFS over the square's compatible own disks."""
        best, _w, exhausted = solve_mwfs_masks(
            own_ok,
            self.oracle,
            lambda i, j: bool(self.adj[i] >> j & 1),
            max_nodes=self.leaf_node_budget,
            kernel=self.kernel,
        )
        self.budget_exhausted |= exhausted
        return tuple(sorted(best))

    def mwfs(self, sid: int, interface: int) -> Tuple[int, ...]:
        """MWFS(S, I) for square id *sid* and interface bitmask *interface*."""
        key = (sid, interface)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        self.calls += 1
        adj, occupied = self.adj, self.occupied
        own_ok = [d for d in self.own[sid] if not adj[d] & interface]
        if occupied[sid] <= len(self.own[sid]):
            # Leaf square (nothing deeper inside): best independent subset
            # of own disks — exactly a (budgeted) exact MWFS on own_ok.
            result = self.memo[key] = self._best_own(own_ok)
            return result
        kids = [c for c in self.index.children[sid] if occupied[c]]

        over_budget = self.calls > self.call_budget
        self.budget_exhausted |= over_budget

        # Candidate D sets: greedy/B&B best independent subset of own disks,
        # plus a budgeted enumeration (always containing the empty set).
        candidates = [self._best_own(own_ok)] if own_ok else []
        seen = set(candidates)
        budget = 1 if over_budget else self.enum_budget
        # Ask for one subset past the budget: the DFS order is fixed, so the
        # first *budget* subsets are unchanged, and a surplus one means the
        # budget cut the enumeration off.
        subsets = list(
            _enumerate_independent_subsets(
                own_ok, adj, self.max_d_size, budget + 1
            )
        )
        if len(subsets) > budget:
            self.budget_exhausted = True
            del subsets[budget:]
        for d in subsets:
            d = tuple(sorted(d))
            if d not in seen:
                seen.add(d)
                candidates.append(d)
        if () not in seen:
            candidates.append(())

        hits = self.index.hits
        best_set: Tuple[int, ...] = ()
        best_weight = -1
        for d in candidates:
            x: List[int] = list(d)
            merged = interface
            for i in d:
                merged |= 1 << i
            for child in kids:
                x.extend(self.mwfs(child, hits(child, merged)))
            w = self.oracle.weight_of(x)
            if w > best_weight:
                best_weight = w
                best_set = tuple(sorted(x))
        self.memo[key] = best_set
        return best_set


def ptas_mwfs(
    system: RFIDSystem,
    unread: Optional[np.ndarray] = None,
    seed: RngLike = None,  # accepted for interface uniformity; deterministic
    k: int = 3,
    shifts: Optional[Sequence[Tuple[int, int]]] = None,
    max_d_size: Optional[int] = None,
    enum_budget: int = 200,
    leaf_node_budget: int = 20_000,
    call_budget: int = 2_000,
    polish: bool = True,
    oracle: Optional[GeneralizedWeightClimber] = None,
    context=None,
    backend: Optional[str] = None,
) -> OneShotResult:
    """Algorithm 1: near-optimal MWFS with location information.

    Parameters
    ----------
    k:
        Shifting parameter (≥ 2); approximation guarantee ``(1 − 1/k)²``.
    shifts:
        Iterable of ``(r, s)`` pairs to evaluate; defaults to all ``k²``.
    max_d_size:
        Optional cap Λ on the per-square subset size (None = unbounded, the
        enumeration budget is the binding control).
    enum_budget:
        Max independent subsets enumerated per internal square.
    leaf_node_budget:
        Branch-and-bound node budget for per-square exact solves.
    call_budget:
        Max DP cells per shift before degrading to single-candidate mode.
    polish:
        Greedily augment the winning shift's set with independent readers of
        positive gain (guarantee-preserving; see :func:`_polish`).
    context:
        Optional :class:`~repro.perf.slotdelta.ScheduleContext`.  Restricts
        every shift's square view to live readers (a retired disk has solo
        weight 0 and never enters a strict-improvement winner) and skips
        retired readers in the polish scan (their gain is exactly 0, never
        ``> best_gain``), so the per-square enumerations shrink as tags
        retire.  The returned set is the same as without pruning only while
        no enumeration budget binds: a square cut off at *enum_budget*
        enumerates a different prefix of subsets once retired disks leave
        it, and may then pick a different set.
    backend:
        Kernel name, validated by
        :func:`repro.perf.backends.resolve_backend` (``None`` or
        ``'numpy'``).  The kernel batches the per-shift solo-weight
        ordering, the interface-compatibility filter and the polish scans
        (``docs/backends.md``).
    """
    n = system.num_readers
    if n == 0:
        return make_result(system, [], unread, solver="ptas", k=k)
    if oracle is None:
        oracle = GeneralizedWeightClimber(system, unread)
    resolve_backend(backend)
    kernel = kernel_for(system)

    radii = system.interference_radii
    scaled_radii, factor = scale_radii(radii)
    scaled_centers = system.reader_positions * factor
    adj = conflict_bits(system)

    if shifts is None:
        shifts = [(r, s) for r in range(k) for s in range(k)]

    # Per-slot live view: retired disks drop out of every shift's
    # own/occupied/tops (shrinking each enumeration) and of the polish scan.
    # While nothing is retired (typically slot 1) every reader is live and
    # the cached full views are already the live views.
    live = None
    if context is not None and context.has_retired:
        live = set(context.live_readers().tolist()).__contains__

    rec = get_recorder()
    best_set: List[int] = []
    best_weight = -1
    best_shift = None
    any_exhausted = False
    for (r, s) in shifts:
        # The shifted subdivision and its interned square index (with the
        # disk-vs-square hit masks) are pure geometry — independent of the
        # unread mask — so they are cached per (system, k, r, s) and shared
        # by every slot of an MCS run.
        index = system_memo(
            system,
            ("ptas.index", k, r, s),
            lambda: _SquareIndex(
                ShiftedHierarchy(scaled_centers, scaled_radii, k, r, s)
            ),
        )
        dp = _ShiftDP(
            index,
            index.view(live) if live is not None else index.full,
            oracle,
            adj,
            kernel,
            (max_d_size, enum_budget, leaf_node_budget, call_budget),
        )
        candidate = dp.solve()
        any_exhausted |= dp.budget_exhausted
        if rec.enabled:
            rec.emit(CandidateEvaluation(context="ptas.dp_cells", count=dp.calls))
        w = oracle.weight_of(candidate)
        if polish:
            # Polish per shift: the survive filter discards different disks
            # per (r, s), so each shift benefits from its own augmentation
            # before the max is taken.
            candidate, w = _polish(
                candidate, w, oracle, adj, n, kernel, live=live
            )
        if w > best_weight:
            best_weight = w
            best_set = candidate
            best_shift = (r, s)

    # Never return an empty set when a positive singleton exists: survive
    # filtering can drop every disk for adversarial layouts, and any
    # implementation of a max-weight selector should fall back to the best
    # single reader (which is itself a feasible scheduling set).
    if best_weight <= 0:
        solo_arr = kernel.solo_weights(oracle.unread_mask, range(n))
        solos = [(int(solo_arr[i]), -i) for i in range(n)]
        w, neg_i = max(solos)
        if w > best_weight:
            best_set = [-neg_i]
            best_weight = w
            best_shift = None

    return make_result(
        system,
        best_set,
        unread,
        solver="ptas",
        k=k,
        shift=best_shift,
        budget_exhausted=any_exhausted,
        polished=polish,
    )


def _polish(
    base: List[int],
    base_weight: int,
    oracle: GeneralizedWeightClimber,
    adj: Sequence[int],
    n: int,
    kernel,
    live=None,
) -> Tuple[List[int], int]:
    """Greedy feasible augmentation: repeatedly add the independent reader
    with the largest positive weight gain.

    Shift-based filtering discards every non-survive disk outright; adding
    back whichever of them still fits can only increase the weight, so the
    ``(1 − 1/k)²`` guarantee of Theorem 2 is preserved while the practical
    quality improves substantially (reported as ``meta['polish_gain']``).

    The chosen set's state lives in the climber across the whole climb
    (add per accepted reader, one ``climb_weights_with`` batch per round),
    so evaluating a candidate costs O(m/64) instead of O(|chosen|·m/64).
    Every candidate is independent of the chosen set, so each extension is
    feasible and its generalised weight equals ``weight_of(chosen + [r])``.
    """
    oracle.reset()
    for c in base:
        oracle.add(c)
    weight = base_weight
    while True:
        # Candidate frontier: not chosen, live, independent of the chosen
        # set (a retired reader covers no unread tag: weight_with(r) equals
        # the current weight, so its gain can never exceed the
        # positive-only acceptance threshold below).  Scored in one batch;
        # the accepted reader is the first index of the maximum weight —
        # exactly the scalar loop's strict-improvement (`gain > best_gain`
        # from 0) winner.
        chosen_bits = oracle.active_bits
        cands = [
            r
            for r in range(n)
            if not chosen_bits >> r & 1
            and (live is None or live(r))
            and not adj[r] & chosen_bits
        ]
        if not cands:
            break
        ws = kernel.climb_weights_with(oracle, cands)
        idx = int(np.argmax(ws))
        if int(ws[idx]) <= weight:
            break
        oracle.add(cands[idx])
        weight = int(ws[idx])
    chosen = oracle.active
    oracle.reset()
    return sorted(chosen), weight
