"""Tests for the exact MWFS branch and bound.

Ground truth is independent brute force: enumerate *every* feasible subset
(not just maximal ones — Figure 2 shows MWFS need not be maximal) and take
the best weight.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SearchBudgetExceeded, exact_mwfs
from repro.perf.incremental import GeneralizedWeightClimber
from tests.conftest import make_random_system, system_strategy


def brute_force_mwfs(system, unread=None):
    """Reference implementation: full subset enumeration."""
    n = system.num_readers
    best_w = 0
    best = ()
    for size in range(0, n + 1):
        for subset in itertools.combinations(range(n), size):
            if not system.is_feasible(subset):
                continue
            w = system.weight(subset, unread)
            if w > best_w:
                best_w = w
                best = subset
    return best, best_w


class TestSmallInstances:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_bruteforce(self, seed):
        system = make_random_system(8, 60, 25, 8, 5, seed=seed)
        _, want = brute_force_mwfs(system)
        got = exact_mwfs(system)
        assert got.weight == want
        assert got.feasible
        assert not got.meta["budget_exhausted"]

    def test_line_system(self, line_system):
        result = exact_mwfs(line_system)
        # best: {A or B} + C → weight 2
        assert result.weight == 2
        assert 2 in result.active

    def test_figure2_drops_middle_reader(self, figure2_system):
        result = exact_mwfs(figure2_system)
        assert result.weight == 4
        np.testing.assert_array_equal(result.active, [0, 2])

    def test_unread_mask(self, small_system):
        unread = np.zeros(small_system.num_tags, dtype=bool)
        unread[:30] = True
        _, want = brute_force_mwfs_limited(small_system, unread)
        got = exact_mwfs(small_system, unread=unread)
        assert got.weight == want

    def test_candidates_restriction(self, small_system):
        result = exact_mwfs(small_system, candidates=[0, 1, 2])
        assert set(result.active.tolist()) <= {0, 1, 2}
        full = exact_mwfs(small_system)
        assert result.weight <= full.weight

    def test_empty_system(self):
        from repro.model import RFIDSystem

        system = RFIDSystem([], [])
        result = exact_mwfs(system)
        assert result.weight == 0
        assert result.size == 0


def brute_force_mwfs_limited(system, unread, max_size=6):
    """Brute force up to a subset size bound (for 12-reader instances where
    optimal sets are small because the unread mask strangles weight)."""
    n = system.num_readers
    best_w = 0
    for size in range(0, max_size + 1):
        for subset in itertools.combinations(range(n), size):
            if not system.is_feasible(subset):
                continue
            w = system.weight(subset, unread)
            best_w = max(best_w, w)
    # verify with the unbounded searcher that larger sets cannot do better:
    # weight is bounded by coverable unread tags, so if best_w already equals
    # that bound we are certainly optimal; otherwise fall back to full search.
    coverable = int((system.covered_by_any() & unread).sum())
    if best_w < coverable:
        return brute_force_mwfs(system, unread)
    return None, best_w


class TestBudget:
    def test_budget_raise(self, paper_system):
        with pytest.raises(SearchBudgetExceeded):
            exact_mwfs(paper_system, max_nodes=10, on_budget="raise")

    def test_budget_best_flags_meta(self, paper_system):
        result = exact_mwfs(paper_system, max_nodes=10, on_budget="best")
        assert result.meta["budget_exhausted"]
        assert result.feasible  # incumbent is always feasible

    def test_bad_on_budget(self, small_system):
        with pytest.raises(ValueError):
            exact_mwfs(small_system, on_budget="explode")

    def test_incumbent_quality_grows_with_budget(self, paper_system):
        w_small = exact_mwfs(paper_system, max_nodes=50).weight
        w_big = exact_mwfs(paper_system, max_nodes=100_000).weight
        assert w_big >= w_small


class TestResultHonesty:
    def test_reported_weight_matches_system(self, small_system):
        result = exact_mwfs(small_system)
        assert result.weight == small_system.weight(result.active)
        assert result.meta["reported_weight"] == result.weight

    def test_oracle_reuse(self, small_system):
        oracle = GeneralizedWeightClimber(small_system)
        a = exact_mwfs(small_system, oracle=oracle)
        b = exact_mwfs(small_system, oracle=oracle)
        assert a.weight == b.weight


class TestProperties:
    @given(system=system_strategy(max_readers=7, max_tags=25))
    @settings(max_examples=25, deadline=None)
    def test_always_optimal_and_feasible(self, system):
        result = exact_mwfs(system)
        assert system.is_feasible(result.active)
        _, want = brute_force_mwfs(system)
        assert result.weight == want

    @given(system=system_strategy(max_readers=7, max_tags=25))
    @settings(max_examples=25, deadline=None)
    def test_at_least_best_singleton(self, system):
        result = exact_mwfs(system)
        best_solo = max(
            (system.weight([i]) for i in range(system.num_readers)), default=0
        )
        assert result.weight >= best_solo
