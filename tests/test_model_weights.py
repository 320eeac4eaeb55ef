"""Tests for the weight climber's feasible-search protocol — it must agree
exactly with the NumPy oracle on every set it holds, under every unread
mask, and ``pop`` must rewind ``push`` field for field."""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.perf.incremental import GeneralizedWeightClimber
from tests.conftest import make_random_system, system_strategy


@pytest.fixture
def system():
    return make_random_system(10, 80, 30, 8, 5, seed=1)


def _state(climber):
    return (
        climber.once, climber.multi, climber.well, climber.silenced,
        climber.operational, climber.active_bits, climber.active,
    )


class TestAgainstNumpyOracle:
    def test_solo_weights(self, system):
        climber = GeneralizedWeightClimber(system)
        for i in range(system.num_readers):
            assert climber.solo_weight(i) == system.weight([i])

    def test_feasible_sets(self, system):
        climber = GeneralizedWeightClimber(system)
        rng = np.random.default_rng(0)
        for _ in range(50):
            candidates = rng.choice(system.num_readers, size=4, replace=False)
            chosen = []
            for c in candidates:
                if not chosen or not system.conflict[c, chosen].any():
                    chosen.append(int(c))
            assert climber.weight_of(chosen) == system.weight(chosen)

    def test_unread_mask(self, system):
        rng = np.random.default_rng(1)
        unread = rng.random(system.num_tags) < 0.5
        climber = GeneralizedWeightClimber(system, unread)
        for i in range(system.num_readers):
            assert climber.solo_weight(i) == system.weight([i], unread)

    def test_bad_mask_shape(self, system):
        with pytest.raises(ValueError):
            GeneralizedWeightClimber(system, np.array([True]))

    @given(system=system_strategy(max_readers=8, max_tags=30), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_property_equivalence(self, system, data):
        climber = GeneralizedWeightClimber(system)
        n = system.num_readers
        subset = data.draw(
            st.lists(st.integers(0, n - 1), max_size=n, unique=True)
        )
        # keep only a feasible prefix
        chosen = []
        for c in subset:
            if not chosen or not system.conflict[c, chosen].any():
                chosen.append(c)
        assert climber.weight_of(chosen) == system.weight(chosen)


class TestIncrementalState:
    def test_push_pop_roundtrip(self, system):
        climber = GeneralizedWeightClimber(system)
        base = climber.current_weight()
        climber.push(0)
        w1 = climber.current_weight()
        assert w1 == climber.weight_of([0])
        climber.push(3)
        climber.pop()
        assert climber.current_weight() == w1
        climber.pop()
        assert climber.current_weight() == base == 0

    def test_pop_empty_raises(self, system):
        climber = GeneralizedWeightClimber(system)
        with pytest.raises(IndexError):
            climber.pop()

    def test_depth(self, system):
        climber = GeneralizedWeightClimber(system)
        assert climber.depth == 0
        climber.push(0)
        climber.push(1)
        assert climber.depth == 2
        climber.reset()
        assert climber.depth == 0
        assert climber.active == []

    def test_incremental_matches_scratch(self, system):
        climber = GeneralizedWeightClimber(system)
        chosen = []
        for c in (0, 2, 5, 7):
            if not chosen or not system.conflict[c, chosen].any():
                climber.push(c)
                chosen.append(c)
                assert climber.current_weight() == climber.weight_of(chosen)

    @given(
        system=system_strategy(max_readers=8, max_tags=40),
        use_unread=st.booleans(),
        data=st.data(),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_push_pop_interleavings(self, system, use_unread, data):
        """Any interleaving of push/pop, infeasible sets included: after every
        step the climber holds the NumPy oracle's weight and feasibility,
        every pop restores the state before its push, ``fresh`` (read at
        random points, so across pops too) equals a from-scratch
        ``new_coverage``, and on a feasible set ``upper_bound_with(pool)``
        bounds every feasible extension drawn from *pool*."""
        n, m = system.num_readers, system.num_tags
        unread = (
            np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)),
                     dtype=bool)
            if use_unread else None
        )
        climber = GeneralizedWeightClimber(system, unread)
        saved = []
        for _ in range(data.draw(st.integers(1, 12), label="steps")):
            active = climber.active
            outside = [r for r in range(n) if r not in active]
            if saved and (not outside or data.draw(st.booleans(), label="pop")):
                climber.pop()
                assert _state(climber) == saved.pop()
            else:
                saved.append(_state(climber))
                climber.push(data.draw(st.sampled_from(outside), label="push"))
            active = climber.active
            assert climber.depth == len(saved)
            assert climber.current_weight() == system.weight(active, unread)
            assert climber.feasible == system.is_feasible(active)
            if data.draw(st.booleans(), label="read fresh"):
                assert climber.fresh.tolist() == [
                    climber.new_coverage(r) for r in range(n)
                ]
            if climber.feasible:
                pool = data.draw(
                    st.lists(st.sampled_from(range(n)), unique=True), label="pool"
                )
                pool = [r for r in pool if r not in active]
                bound = climber.upper_bound_with(pool)
                for size in range(len(pool) + 1):
                    for extra in itertools.combinations(pool, size):
                        grown = active + list(extra)
                        if system.is_feasible(grown):
                            assert system.weight(grown, unread) <= bound


class TestUpperBound:
    def test_bound_dominates_all_extensions(self, system):
        climber = GeneralizedWeightClimber(system)
        climber.push(0)
        candidates = [i for i in range(1, system.num_readers)]
        ub = climber.upper_bound_with(candidates)
        # check a sample of feasible extensions
        rng = np.random.default_rng(2)
        for _ in range(40):
            extra = rng.choice(candidates, size=3, replace=False)
            chosen = [0]
            for c in extra:
                if not system.conflict[c, chosen].any():
                    chosen.append(int(c))
            assert climber.weight_of(chosen) <= ub

    def test_bound_with_no_candidates_is_current(self, system):
        climber = GeneralizedWeightClimber(system)
        climber.push(0)
        assert climber.upper_bound_with([]) == climber.current_weight()


class TestFromMasks:
    def test_manual_masks(self):
        # two readers: reader 10 covers tags {0,1}, reader 20 covers {1,2}
        climber = GeneralizedWeightClimber.from_masks(
            {10: 0b011, 20: 0b110}, unread_mask=0b111
        )
        assert climber.solo_weight(10) == 2
        assert climber.solo_weight(20) == 2
        # union: tag 1 covered twice → only tags 0 and 2 count
        assert climber.weight_of([10, 20]) == 2
        # no geometry: nothing is silenced, so the pushed set agrees
        climber.push(10)
        climber.push(20)
        assert climber.feasible
        assert climber.current_weight() == 2
        climber.pop()
        assert climber.current_weight() == 2 and climber.active == [10]

    def test_unread_mask_limits(self):
        climber = GeneralizedWeightClimber.from_masks({1: 0b111}, unread_mask=0b001)
        assert climber.solo_weight(1) == 1
        climber.push(1)
        assert climber.current_weight() == 1
