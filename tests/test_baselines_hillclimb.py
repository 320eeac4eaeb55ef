"""Tests for the Greedy Hill-Climbing baseline."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines import greedy_hill_climbing, hillclimb
from repro.core import exact_mwfs
from repro.perf.backends import kernel_for
from repro.perf.backends.numpy_batched import BATCH_MIN
from repro.perf.incremental import GeneralizedWeightClimber
from repro.perf.packed import bigint_to_bool
from repro.perf.slotdelta import ScheduleContext
from repro.util.compat import bit_count
from tests.conftest import make_random_system, system_strategy


class TestWeightAwareClimber:
    def test_never_exceeds_exact(self, small_system):
        ghc = greedy_hill_climbing(small_system)
        opt = exact_mwfs(small_system)
        assert ghc.weight <= opt.weight

    def test_at_least_best_singleton(self, small_system):
        ghc = greedy_hill_climbing(small_system)
        best_solo = max(
            small_system.weight([i]) for i in range(small_system.num_readers)
        )
        assert ghc.weight >= best_solo

    def test_deterministic(self, small_system):
        a = greedy_hill_climbing(small_system)
        b = greedy_hill_climbing(small_system)
        np.testing.assert_array_equal(a.active, b.active)

    def test_figure2_avoids_middle_reader(self, figure2_system):
        """The weight-aware climber adds B first (solo weight 3) and then
        cannot improve: adding A or C would RRc-blank an overlap tag for a
        net gain of 0.  It gets stuck at 3 — exactly the local optimum the
        greedy rule implies (OPT is 4)."""
        res = greedy_hill_climbing(figure2_system)
        assert res.weight == 3
        np.testing.assert_array_equal(res.active, [1])

    def test_empty_system(self):
        from repro.model import RFIDSystem

        res = greedy_hill_climbing(RFIDSystem([], []))
        assert res.size == 0

    def test_zero_coverage_stops_immediately(self):
        system = make_random_system(5, 0, 20, 6, 3, seed=0)
        res = greedy_hill_climbing(system)
        assert res.size == 0

    def test_may_be_infeasible_by_design(self):
        """GHC does not enforce feasibility; on dense instances it may keep
        a conflicting reader whose net weight contribution is positive."""
        # this specific seed produces an infeasible GHC set (cf. the
        # ghc_gain ablation at lambda_R=26)
        system = make_random_system(40, 800, 100, 26, 6, seed=0)
        res = greedy_hill_climbing(system, gain_mode="coverage")
        assert not res.feasible

    def test_require_feasible_variant(self, small_system):
        res = greedy_hill_climbing(small_system, require_feasible=True)
        assert res.feasible


class TestNaiveClimber:
    def test_weaker_than_aware(self, small_system):
        aware = greedy_hill_climbing(small_system, gain_mode="weight")
        naive = greedy_hill_climbing(small_system, gain_mode="coverage")
        assert naive.weight <= aware.weight

    def test_bad_gain_mode(self, small_system):
        with pytest.raises(ValueError):
            greedy_hill_climbing(small_system, gain_mode="magic")

    def test_unread_mask(self, small_system):
        unread = np.zeros(small_system.num_tags, dtype=bool)
        res = greedy_hill_climbing(small_system, unread=unread, gain_mode="coverage")
        assert res.weight == 0


class TestProperties:
    @given(system=system_strategy(max_readers=8, max_tags=30))
    @settings(max_examples=20, deadline=None)
    def test_weight_below_exact(self, system):
        ghc = greedy_hill_climbing(system)
        assert ghc.weight <= exact_mwfs(system).weight

    @given(system=system_strategy(max_readers=8, max_tags=30))
    @settings(max_examples=20, deadline=None)
    def test_reported_weight_honest(self, system):
        ghc = greedy_hill_climbing(system)
        assert ghc.weight == system.weight(ghc.active)


# ---------------------------------------------------------------------------
# carried climb state and the bound-pruned frontier
# ---------------------------------------------------------------------------
def _retired_context(system):
    """A schedule context after one served GHC slot, so the next climb
    sees retired readers and a shrunken unread population."""
    context = ScheduleContext(system)
    first = greedy_hill_climbing(system, context=context)
    context.retire_tags(system.well_covered_tags(first.active, context.unread))
    return context


def _full_frontier_scan(system, unread, live, gain_mode, require_feasible):
    """The climb with no pruning: every step scores every eligible reader
    from the definitions (``weight_with`` loops over the active list) and
    takes the first maximum in ascending-id order."""
    climber = GeneralizedWeightClimber(system, unread)
    eligible = np.array(live, dtype=bool)
    current = 0
    while True:
        cands = [
            int(r)
            for r in np.flatnonzero(eligible)
            if not (require_feasible and system.conflict[r, climber.active].any())
        ]
        if not cands:
            break
        if gain_mode == "weight":
            gains = [climber.weight_with(r) - current for r in cands]
        else:
            gains = [climber.new_coverage(r) for r in cands]
        idx = int(np.argmax(gains))
        if gains[idx] <= 0:
            break
        best = cands[idx]
        after = climber.weight_with(best)
        if gain_mode == "coverage" and after < current:
            break
        climber.add(best)
        eligible[best] = False
        current = after
    return climber.active


def _pruned_climb(system, **kwargs):
    """``greedy_hill_climbing``'s result and the climber it grew (whose
    ``active`` keeps insertion order)."""
    made = []

    class Spy(GeneralizedWeightClimber):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            made.append(self)

    with mock.patch.object(hillclimb, "GeneralizedWeightClimber", Spy):
        result = greedy_hill_climbing(system, **kwargs)
    return result, made[0]


def _assert_state_matches_definitions(system, climber, unread):
    """The carried state against from-scratch recomputation: fresh counts
    (forced to sync first), the silenced and operational reader sets, the
    well-covered union, and fresh — zero for a silenced reader — as an
    upper bound on every reader's exact gain."""
    n, active = system.num_readers, climber.active
    everyone = list(range(n))
    fresh = climber.fresh.copy()
    assert fresh.tolist() == [climber.new_coverage(r) for r in everyone]
    silenced = system.in_interference_range[:, active].any(axis=1)
    assert bigint_to_bool(climber.silenced, n).tolist() == silenced.tolist()
    operational = np.flatnonzero(bigint_to_bool(climber.operational, n))
    assert operational.tolist() == system.operational_readers(active).tolist()
    assert bit_count(climber.well) == system.weight(active, unread)
    assert climber.current_weight() == bit_count(climber.well)
    assert climber.feasible == system.is_feasible(active)
    for r in everyone:
        gain = climber.weight_with(r) - climber.current_weight()
        assert gain <= (0 if silenced[r] else fresh[r])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(2, BATCH_MIN + 24),
    m=st.integers(0, 300),
    side=st.floats(30.0, 70.0),
    modes=st.lists(st.booleans(), max_size=16),
    use_unread=st.booleans(),
)
@example(seed=5, n=BATCH_MIN + 12, m=240, side=45.0, modes=[True] * 12,
         use_unread=True)
@example(seed=6, n=BATCH_MIN + 24, m=300, side=40.0,
         modes=[False, True] * 8, use_unread=False)
def test_carried_state_matches_definitions_along_climbs(
    seed, n, m, side, modes, use_unread
):
    """At every step of a real climb (best weight gain or best coverage
    gain, no stopping rule, so silenced actives occur), the maintained
    fresh counts equal a from-scratch new_coverage, fresh bounds
    every exact gain, and popcount(well) is the system's weight."""
    system = make_random_system(n, m, side, 9.0, 5.0, seed)
    rng = np.random.default_rng(seed)
    unread = rng.random(m) < 0.7 if use_unread else None
    climber = GeneralizedWeightClimber(system, unread)
    frontier = list(range(n))
    _assert_state_matches_definitions(system, climber, unread)
    for by_weight in modes:
        if not frontier:
            break
        if by_weight:
            gains = climber.weights_with_many(frontier)
        else:
            gains = climber.new_coverage_many(frontier)
        climber.add(frontier.pop(int(np.argmax(gains))))
        _assert_state_matches_definitions(system, climber, unread)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 40),
    m=st.integers(0, 400),
    side=st.floats(20.0, 60.0),
    use_unread=st.booleans(),
    gain_mode=st.sampled_from(["weight", "coverage"]),
    require_feasible=st.booleans(),
)
@example(seed=2, n=24, m=300, side=40.0, use_unread=False,
         gain_mode="coverage", require_feasible=False)
@example(seed=2, n=24, m=300, side=40.0, use_unread=True,
         gain_mode="coverage", require_feasible=False)
@example(seed=2, n=24, m=300, side=40.0, use_unread=True,
         gain_mode="weight", require_feasible=True)
def test_reported_weight_and_feasibility_match_system(
    seed, n, m, side, use_unread, gain_mode, require_feasible
):
    """GHC reports the weight and feasibility of its finished climber;
    both equal the system's own evaluation of the active set, for climbs
    that end feasible and infeasible (the two coverage-mode examples end
    with a silenced active reader)."""
    system = make_random_system(n, m, side, 16.0, 6.0, seed)
    unread = np.random.default_rng(seed).random(m) < 0.7 if use_unread else None
    result = greedy_hill_climbing(
        system, unread, gain_mode=gain_mode, require_feasible=require_feasible
    )
    assert result.weight == system.weight(result.active, unread)
    assert result.feasible == system.is_feasible(result.active)


@pytest.mark.parametrize("backend", ["numpy"])
@pytest.mark.parametrize("retired", [False, True], ids=["no_context", "retired"])
@pytest.mark.parametrize("require_feasible", [False, True], ids=["any", "feasible"])
@pytest.mark.parametrize("gain_mode", ["weight", "coverage"])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**16), wide=st.booleans())
@example(seed=11, wide=False)
@example(seed=12, wide=True)
def test_pruned_climb_matches_full_frontier_scan(
    gain_mode, require_feasible, retired, backend, seed, wide
):
    """The pruned climb adds exactly the readers, in exactly the order, of
    a full-frontier scan from the definitions — on frontiers below
    BATCH_MIN (scored whole) and well above it (bound-pruned), with and
    without a context whose earlier slot retired readers."""
    n = BATCH_MIN + 24 if wide else 14
    system = make_random_system(n, 7 * n, 8.0 * np.sqrt(n), 9.0, 5.0, seed)
    kwargs = dict(gain_mode=gain_mode, require_feasible=require_feasible,
                  backend=backend)
    if retired:
        context = _retired_context(system)
        unread, live = context.unread.copy(), context.remaining_counts > 0
        kwargs.update(unread=unread, context=context)
    else:
        unread, live = None, np.ones(n, dtype=bool)
    expect = _full_frontier_scan(system, unread, live, gain_mode, require_feasible)
    result, climber = _pruned_climb(system, **kwargs)
    assert climber.active == expect
    assert result.weight == system.weight(expect, unread)
    _assert_state_matches_definitions(system, climber, unread)


@pytest.mark.parametrize("backend", ["numpy"])
def test_wide_frontier_is_pruned(backend):
    """Above BATCH_MIN the climb scores the BATCH_MIN best bounds and then
    only candidates whose bound can still win — far fewer than the whole
    frontier per step — and still matches the full scan."""
    system = make_random_system(120, 2400, 110.0, 9.0, 5.0, 21)
    kernel = kernel_for(system)
    scored = []
    weigh = kernel.climb_weights_with

    def counting(climb, candidates):
        scored.append(len(candidates))
        return weigh(climb, candidates)

    with mock.patch.object(kernel, "climb_weights_with", counting):
        _, climber = _pruned_climb(system, backend=backend)
    assert climber.active == _full_frontier_scan(
        system, None, np.ones(120, dtype=bool), "weight", False
    )
    steps = len(climber.active) + 1  # the last scan finds no positive gain
    frontier = sum(120 - k for k in range(steps))
    assert BATCH_MIN in scored
    assert sum(scored) < frontier / 2
