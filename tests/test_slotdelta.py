"""Contract of the cross-slot schedule context (``repro.perf.slotdelta``).

Pins, per ``docs/performance.md``:

* ``ScheduleContext`` invariants — incremental unread mask / counts
  always match a from-scratch recompute (initial counts included, on the
  64-tag word boundary), retirement is monotone (duplicate
  and repeated retirements included), warm starts are live subsets of the
  previous active set;
* **output identity** — on every slot of a real schedule, each solver
  family returns the same active set and weight with the context as its
  context-free one-shot call on the same unread mask and rng state, on
  feasible and degenerate (uncoverable-tag) scenarios, unless a PTAS
  enumeration budget binds;
* **work reduction** — the pruning is allowed (expected) to shrink
  ``sets_evaluated``; the PTAS square-index rebuild is the measurable case;
* warm-started exact branch-and-bound returns the same set and weight as a
  cold search;
* committed ``SlotRecord`` arrays are frozen.
"""

import copy
import functools

import numpy as np
import pytest

from repro.baselines.hillclimb import greedy_hill_climbing
from repro.core import greedy_covering_schedule
from repro.core.distributed import distributed_mwfs
from repro.core.exact import exact_mwfs, solve_mwfs_masks
from repro.core.localsearch import local_search_mwfs
from repro.core.mcs import accepts_context
from repro.core.neighborhood import centralized_location_free
from repro.core.oneshot import make_result
from repro.core.ptas import ptas_mwfs
from repro.model.system import ReducedSystems
from repro.obs.collectors import RunCollector
from repro.obs.events import recording
from repro.perf.incremental import GeneralizedWeightClimber
from repro.perf.slotdelta import ScheduleContext
from repro.shard import ShardSpec
from tests.conftest import make_random_system, shrunken_chaos_shard


# ---------------------------------------------------------------------------
# ScheduleContext unit behaviour
# ---------------------------------------------------------------------------
class TestScheduleContext:
    def test_initial_state_matches_coverage(self, line_system):
        ctx = ScheduleContext(line_system)
        assert ctx.num_unread == line_system.num_tags
        assert ctx.unread.all()
        # Tag 3 is covered by nobody, so every reader starts live with its
        # solo weight as the remaining count.
        for r in range(line_system.num_readers):
            assert ctx.is_live(r)
            assert ctx.remaining_counts[r] == int(
                line_system.coverage[:, r].sum()
            )
        assert not ctx.has_retired
        ctx.check()
        # The initial counts are popcounted over the packed words: they
        # equal the dense column sums for any mask across a word boundary.
        for num_tags in (64, 65):
            system = make_random_system(10, num_tags, 30, 8, 6, seed=num_tags)
            rng = np.random.default_rng(num_tags)
            for unread in (rng.random(num_tags) < 0.5,
                           np.zeros(num_tags, dtype=bool)):
                ctx = ScheduleContext(system, unread)
                expect = system.coverage[unread].sum(axis=0)
                assert ctx.remaining_counts.dtype == np.int64
                assert ctx.remaining_counts.tolist() == expect.tolist()
                assert ctx.num_unread == int(unread.sum())

    def test_retire_tags_updates_all_views(self, line_system):
        ctx = ScheduleContext(line_system)
        ctx.retire_tags([0])  # tag 0 is reader A's only tag
        assert ctx.num_unread == line_system.num_tags - 1
        assert not ctx.unread[0]
        assert not ctx.is_live(0)
        assert ctx.has_retired
        assert list(ctx.live_readers()) == [1, 2]
        ctx.check()

    def test_retire_tags_is_idempotent(self, line_system):
        ctx = ScheduleContext(line_system)
        ctx.retire_tags([0, 1])
        counts = ctx.remaining_counts.copy()
        ctx.retire_tags([0, 1])  # second retire of the same tags: no-op
        assert np.array_equal(ctx.remaining_counts, counts)
        assert ctx.num_unread == line_system.num_tags - 2
        ctx.check()

    def test_retire_tags_ignores_duplicates_in_one_batch(self, line_system):
        ctx = ScheduleContext(line_system)
        ctx.retire_tags([1, 1, 2, 1])
        assert ctx.num_unread == line_system.num_tags - 2
        assert ctx.remaining_counts.min() >= 0
        ctx.check()

    def test_warm_start_is_live_subset_of_previous_active(self, line_system):
        ctx = ScheduleContext(line_system)
        assert ctx.warm_start() == []  # no previous slot yet
        ctx.note_active([0, 2])
        assert ctx.warm_start() == [0, 2]
        ctx.retire_tags([0])  # retires reader 0
        assert ctx.warm_start() == [2]

    def test_restricted_initial_unread(self, line_system):
        unread = np.ones(line_system.num_tags, dtype=bool)
        unread[3] = False  # the uncoverable tag already excluded
        ctx = ScheduleContext(line_system, unread)
        assert ctx.num_unread == 3
        unread[0] = False  # caller's array was copied
        assert ctx.unread[0]
        ctx.check()

    def test_invariants_hold_through_random_retirement(self):
        system = make_random_system(12, 150, 40, 8, 5, seed=3)
        ctx = ScheduleContext(system)
        rng = np.random.default_rng(0)
        while ctx.num_unread > 0:
            unread_ids = np.flatnonzero(ctx.unread)
            batch = rng.choice(
                unread_ids, size=min(17, unread_ids.size), replace=False
            )
            ctx.retire_tags(batch)
            ctx.check()
        assert not ctx.unread.any()
        assert list(ctx.live_readers()) == []


# ---------------------------------------------------------------------------
# Output identity: the context must not move any slot's solve
# ---------------------------------------------------------------------------
SOLVERS = {
    "exact": exact_mwfs,
    "ptas": functools.partial(ptas_mwfs, k=2),
    "localsearch": local_search_mwfs,
    "centralized": centralized_location_free,
    "distributed": distributed_mwfs,
    "ghc": greedy_hill_climbing,
}


class _ContextChecked:
    """Solver wrapper that re-solves every slot without the context.

    Each call first runs *solver* context-free on a deep copy of the rng and
    a copy of ``unread``, under its own :class:`RunCollector` (so the
    driver's counters see only the context run), then runs it with the
    context and asserts the same sorted active set and weight — unless
    either call reports ``budget_exhausted`` (a binding enumeration budget
    is the one case pruning may change the pick).  ``reference_sets``
    accumulates the context-free ``sets_evaluated``.
    """

    def __init__(self, solver):
        self.solver = solver
        self.calls = 0
        self.reference_sets = 0

    def __call__(self, system, unread, rng, context=None):
        assert context is not None
        collector = RunCollector()
        with recording(collector):
            ref = self.solver(
                system, np.array(unread, copy=True), copy.deepcopy(rng)
            )
        self.reference_sets += collector.summary()["sets_evaluated"]
        # A solver without pruning hooks (local search) takes no context.
        kwargs = {"context": context} if accepts_context(self.solver) else {}
        result = self.solver(system, unread, rng, **kwargs)
        self.calls += 1
        if not (
            ref.meta.get("budget_exhausted")
            or result.meta.get("budget_exhausted")
        ):
            assert sorted(result.active.tolist()) == sorted(
                ref.active.tolist()
            )
            assert result.weight == ref.weight
        return result


def _schedule_fingerprint(result):
    return {
        "size": result.size,
        "complete": result.complete,
        "weights": [slot.weight for slot in result.slots],
        "tags_read": [slot.tags_read.tolist() for slot in result.slots],
        "active": [slot.active.tolist() for slot in result.slots],
    }


@pytest.mark.parametrize("name", sorted(SOLVERS))
class TestOutputIdentity:
    def test_feasible_system(self, name):
        checked = _ContextChecked(SOLVERS[name])
        result = greedy_covering_schedule(
            make_random_system(12, 150, 40, 8, 5, seed=3), checked, seed=11
        )
        assert checked.calls > 0
        assert result.complete

    def test_degenerate_uncoverable_tag(self, name, line_system):
        checked = _ContextChecked(SOLVERS[name])
        result = greedy_covering_schedule(line_system, checked, seed=5)
        assert checked.calls > 0
        # "complete" here means every *coverable* tag read; tag 3 never is.
        assert result.complete
        assert result.tags_read_total == 3

    def test_with_linklayer(self, name, line_system):
        checked = _ContextChecked(SOLVERS[name])
        result = greedy_covering_schedule(
            line_system, checked, linklayer="aloha", seed=2
        )
        assert checked.calls > 0
        assert result.complete


@pytest.mark.parametrize("name", ["exact", "ghc", "ptas"])
def test_degraded_cell_solves_prune_without_moving_a_pick(name, monkeypatch):
    """A cell with a suspected reader solves a reduced view of its
    subsystem, and gets a context over that view like a calm cell gets
    one over its subsystem: every cell solve of a faulted sharded schedule
    (the shrunken ``chaos_shard`` of ``tests/test_golden.py``) sees a
    context, and pruning by it moves no pick."""
    views = []
    get = ReducedSystems.get

    def spy(self, system, suspected, key=None):
        view, live = get(self, system, suspected, key)
        views.append(view)
        return view, live

    monkeypatch.setattr(ReducedSystems, "get", spy)
    system, kwargs = shrunken_chaos_shard()
    checked = _ContextChecked(SOLVERS[name])
    greedy_covering_schedule(
        system, checked, shard=ShardSpec(cells=4), **kwargs
    )
    assert checked.calls > 0
    assert any(view is not None for view in views)


def test_incremental_with_context_blind_solver():
    """A solver without a ``context`` keyword is never handed one, and each
    slot it sees exactly the coverable tags no earlier slot read — the
    driver keeps the mask/retirement bookkeeping to itself."""
    seen = []

    def blind_solver(system, unread, seed):
        seen.append(np.array(unread, copy=True))
        return make_result(system, [int(np.argmax(unread @ system.coverage))],
                           unread)

    system = make_random_system(12, 150, 40, 8, 5, seed=3)
    result = greedy_covering_schedule(system, blind_solver)
    assert result.complete
    expect = system.covered_by_any().copy()
    assert len(seen) == result.size
    for unread, slot in zip(seen, result.slots):
        assert np.array_equal(unread, expect)
        expect[slot.tags_read] = False
    assert not expect.any()


# ---------------------------------------------------------------------------
# Work reduction: pruning must shrink the PTAS's search, not just match it
# ---------------------------------------------------------------------------
def _counters(system, solver):
    collector = RunCollector()
    with recording(collector):
        result = greedy_covering_schedule(system, solver, seed=11)
    summary = collector.summary()
    return result, summary


def test_ptas_search_work_drops_with_retirement():
    """Once readers retire, the live-only square index shrinks the PTAS's
    per-square enumerations and DP cells.  (The exact branch-and-bound is
    deliberately *not* asserted on: its upper bound already prunes
    retired-only suffixes at the same nodes, so its node counts match the
    reference by construction.)"""
    checked = _ContextChecked(functools.partial(ptas_mwfs, k=2))
    result, summary = _counters(
        make_random_system(20, 300, 50, 10, 5, seed=2), checked
    )
    assert result.complete
    assert checked.calls == result.size
    assert summary["sets_evaluated"] < checked.reference_sets


def test_counters_deterministic_across_runs():
    """Two runs of the same schedule give identical schedules *and*
    identical work counters."""
    solver = functools.partial(ptas_mwfs, k=2)
    res_a, a = _counters(make_random_system(12, 150, 40, 8, 5, seed=3), solver)
    res_b, b = _counters(make_random_system(12, 150, 40, 8, 5, seed=3), solver)
    assert _schedule_fingerprint(res_a) == _schedule_fingerprint(res_b)
    assert a["sets_evaluated"] == b["sets_evaluated"]
    assert a["sets_by_context"] == b["sets_by_context"]


# ---------------------------------------------------------------------------
# Warm-started exact search
# ---------------------------------------------------------------------------
def _conflict_fn(system):
    from repro.perf.cache import conflict_bits

    adj = conflict_bits(system)
    return lambda i, j: bool(adj[i] >> j & 1)


class TestWarmStart:
    def test_warm_start_returns_cold_answer(self):
        system = make_random_system(12, 150, 40, 8, 5, seed=3)
        oracle = GeneralizedWeightClimber(system)
        conflict = _conflict_fn(system)
        candidates = list(range(system.num_readers))
        cold_set, cold_weight, _ = solve_mwfs_masks(
            candidates, oracle, conflict
        )
        # Warm-start from several feasible subsets of the optimum, from the
        # empty set, and from the optimum itself: same set, same weight.
        for warm in ([], cold_set[:1], cold_set[:2], list(cold_set)):
            oracle = GeneralizedWeightClimber(system)
            warm_set, warm_weight, _ = solve_mwfs_masks(
                candidates, oracle, conflict, warm_start=warm
            )
            assert warm_weight == cold_weight
            assert sorted(warm_set) == sorted(cold_set)

    def test_warm_start_weight_restored_when_unimproved(self, line_system):
        """Seeding the incumbent one below the warm weight must not leak: if
        the search cannot beat the warm set, the true weight comes back."""
        oracle = GeneralizedWeightClimber(line_system)
        conflict = _conflict_fn(line_system)
        best_set, best_weight, _ = solve_mwfs_masks(
            [0, 1, 2], oracle, conflict
        )
        oracle = GeneralizedWeightClimber(line_system)
        warm_set, warm_weight, _ = solve_mwfs_masks(
            [0, 1, 2], oracle, conflict, warm_start=best_set
        )
        assert warm_weight == best_weight
        assert sorted(warm_set) == sorted(best_set)


# ---------------------------------------------------------------------------
# Committed slot records are frozen
# ---------------------------------------------------------------------------
def test_slot_record_arrays_are_read_only(line_system):
    result = greedy_covering_schedule(line_system, exact_mwfs)
    slot = result.slots[0]
    with pytest.raises(ValueError):
        slot.active[0] = 99
    with pytest.raises(ValueError):
        slot.tags_read[0] = 99
