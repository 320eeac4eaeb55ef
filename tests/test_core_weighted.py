"""Tests for value-weighted MWFS (priority scheduling extension)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import exact_mwfs, weighted_mwfs
from repro.model import WeightedTagOracle
from repro.perf.incremental import GeneralizedWeightClimber
from tests.conftest import make_random_system, system_strategy


@pytest.fixture
def system():
    return make_random_system(10, 80, 30, 8, 5, seed=1)


def brute_force_weighted(system, values):
    n = system.num_readers
    best = 0.0
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            if not system.is_feasible(subset):
                continue
            well = system.well_covered_tags(subset)
            best = max(best, float(values[well].sum()))
    return best


class TestWeightedOracle:
    def test_uniform_matches_bitset(self, system):
        weighted = WeightedTagOracle(system, np.ones(system.num_tags))
        climber = GeneralizedWeightClimber(system)
        rng = np.random.default_rng(0)
        for _ in range(30):
            cand = rng.choice(system.num_readers, size=4, replace=False)
            chosen = []
            for c in cand:
                if not chosen or not system.conflict[c, chosen].any():
                    chosen.append(int(c))
            assert weighted.weight_of(chosen) == climber.weight_of(chosen)

    def test_push_pop_roundtrip(self, system):
        oracle = WeightedTagOracle(system, np.ones(system.num_tags))
        oracle.push(0)
        w1 = oracle.current_weight()
        oracle.push(2)
        oracle.pop()
        assert oracle.current_weight() == w1
        oracle.pop()
        assert oracle.current_weight() == 0.0
        with pytest.raises(IndexError):
            oracle.pop()

    def test_unread_mask_zeroes_values(self, system):
        unread = np.zeros(system.num_tags, dtype=bool)
        oracle = WeightedTagOracle(system, np.ones(system.num_tags), unread)
        assert oracle.solo_weight(0) == 0.0

    def test_validation(self, system):
        with pytest.raises(ValueError):
            WeightedTagOracle(system, np.ones(3))
        with pytest.raises(ValueError):
            WeightedTagOracle(system, -np.ones(system.num_tags))
        with pytest.raises(ValueError):
            WeightedTagOracle(system, np.full(system.num_tags, np.nan))

    def test_upper_bound_sound(self, system):
        rng = np.random.default_rng(1)
        values = rng.uniform(0, 10, size=system.num_tags)
        oracle = WeightedTagOracle(system, values)
        oracle.push(0)
        cands = list(range(1, system.num_readers))
        ub = oracle.upper_bound_with(cands)
        for _ in range(30):
            extra = rng.choice(cands, size=3, replace=False)
            chosen = [0]
            for c in extra:
                if not system.conflict[c, chosen].any():
                    chosen.append(int(c))
            assert oracle.weight_of(chosen) <= ub + 1e-9


class TestWeightedMWFS:
    def test_uniform_values_match_plain_exact(self, system):
        plain = exact_mwfs(system)
        weighted = weighted_mwfs(system, np.ones(system.num_tags))
        assert weighted.meta["weighted_value"] == plain.weight

    def test_matches_bruteforce(self):
        system = make_random_system(7, 40, 25, 8, 5, seed=2)
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 5, size=system.num_tags)
        want = brute_force_weighted(system, values)
        got = weighted_mwfs(system, values)
        assert got.meta["weighted_value"] == pytest.approx(want)
        assert got.feasible

    def test_priorities_steer_selection(self, system):
        """Concentrating all value on the tags of one reader must pull that
        reader into the solution."""
        for r in range(system.num_readers):
            covered = np.flatnonzero(system.coverage[:, r])
            if len(covered) == 0:
                continue
            values = np.zeros(system.num_tags)
            values[covered] = 1000.0
            result = weighted_mwfs(system, values)
            # either r itself is chosen, or every high-value tag is covered
            # exactly once by the chosen set anyway
            well = system.well_covered_tags(result.active)
            assert r in result.active or set(covered) <= set(well.tolist())
            break

    def test_zero_values_give_zero(self, system):
        result = weighted_mwfs(system, np.zeros(system.num_tags))
        assert result.meta["weighted_value"] == 0.0

    def test_candidates_restriction(self, system):
        values = np.ones(system.num_tags)
        restricted = weighted_mwfs(system, values, candidates=[0, 1])
        assert set(restricted.active.tolist()) <= {0, 1}

    @given(system=system_strategy(max_readers=6, max_tags=20), data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_property_matches_bruteforce(self, system, data):
        values = np.array(
            [
                data.draw(st.floats(0, 10, allow_nan=False))
                for _ in range(system.num_tags)
            ]
        )
        want = brute_force_weighted(system, values)
        got = weighted_mwfs(system, values)
        assert got.meta["weighted_value"] == pytest.approx(want)
