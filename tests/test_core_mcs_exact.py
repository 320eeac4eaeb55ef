"""Tests for the exact minimum covering schedule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import get_solver, greedy_covering_schedule
from repro.core.mcs_exact import (
    ExactScheduleResult,
    McsSearchExploded,
    exact_covering_schedule,
)
from tests.conftest import make_random_system


def make_tiny(seed, readers=7, tags=30):
    return make_random_system(readers, tags, 30, 9, 6, seed=seed)


class TestExactCoveringSchedule:
    def test_schedule_is_valid(self):
        system = make_tiny(0)
        result = exact_covering_schedule(system)
        # replaying the slots must read every coverable tag
        unread = system.covered_by_any().copy()
        for slot in result.slots:
            assert system.is_feasible(list(slot))
            served = system.well_covered_tags(slot, unread)
            unread[served] = False
        assert not unread.any()
        assert result.size == len(result.slots)

    def test_empty_population(self):
        from repro.model import RFIDSystem, Reader

        system = RFIDSystem(
            [Reader(id=0, x=0, y=0, interference_radius=2, interrogation_radius=1)],
            [],
        )
        result = exact_covering_schedule(system)
        assert result.size == 0

    def test_single_slot_when_no_conflicts_or_overlap(self):
        from repro.model import build_system

        system = build_system(
            np.array([[0.0, 0.0], [50.0, 0.0]]),
            np.full(2, 5.0),
            np.full(2, 5.0),
            np.array([[0.0, 1.0], [50.0, 1.0]]),
        )
        assert exact_covering_schedule(system).size == 1

    def test_figure2_needs_two_slots(self, figure2_system):
        """Reading all five Figure-2 tags takes 2 slots: {A,C} then {B}."""
        result = exact_covering_schedule(figure2_system)
        assert result.size == 2

    def test_reader_limit_enforced(self):
        system = make_random_system(12, 20, 30, 9, 6, seed=0)
        with pytest.raises(McsSearchExploded, match="enumeration limit"):
            exact_covering_schedule(system, max_readers=10)

    def test_state_budget_enforced(self):
        system = make_tiny(1)
        with pytest.raises(McsSearchExploded, match="BFS states"):
            exact_covering_schedule(system, max_states=1)


class TestGreedyGap:
    """Theorem 1 promises log-n; measure the actual gap on solvable
    instances."""

    @pytest.mark.parametrize("seed", range(6))
    def test_greedy_within_one_slot_of_optimal(self, seed):
        system = make_tiny(seed)
        opt = exact_covering_schedule(system)
        greedy = greedy_covering_schedule(system, get_solver("exact"))
        assert greedy.size >= opt.size  # sanity: opt is a lower bound
        assert greedy.size <= opt.size + 1, (seed, greedy.size, opt.size)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        readers=st.integers(1, 7),
        tags=st.integers(0, 30),
    )
    def test_theorem1_harmonic_bound(self, seed, readers, tags):
        """Theorem 1: greedy MCS with an exact one-shot solver takes at
        most H(m)·OPT slots, m the number of coverable tags."""
        system = make_tiny(seed, readers=readers, tags=tags)
        opt = exact_covering_schedule(system)
        greedy = greedy_covering_schedule(system, get_solver("exact"))
        assert greedy.complete
        m = int(system.covered_by_any().sum())
        harmonic = sum(1.0 / i for i in range(1, m + 1))
        assert greedy.size <= harmonic * opt.size + 1e-9, (
            seed, m, greedy.size, opt.size
        )
