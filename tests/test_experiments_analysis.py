"""Tests for schedule analytics."""

import numpy as np
import pytest

from repro.core import get_solver, greedy_covering_schedule
from repro.experiments.analysis import (
    ActivationStats,
    LatencyStats,
    jain_fairness,
    reader_service_counts,
    summarize_schedule,
    tag_read_slots,
)
from tests.conftest import make_random_system


@pytest.fixture
def system():
    return make_random_system(12, 150, 40, 8, 5, seed=3)


@pytest.fixture
def schedule(system):
    return greedy_covering_schedule(system, get_solver("exact"), seed=0)


class TestTagReadSlots:
    def test_covers_all_served_tags(self, schedule):
        mapping = tag_read_slots(schedule)
        assert len(mapping) == schedule.tags_read_total

    def test_slots_valid(self, schedule):
        mapping = tag_read_slots(schedule)
        assert all(0 <= s < schedule.size for s in mapping.values())

    def test_matches_slot_records(self, schedule):
        mapping = tag_read_slots(schedule)
        for slot in schedule.slots:
            for t in slot.tags_read.tolist():
                assert mapping[t] == slot.slot


class TestLatencyStats:
    def test_from_schedule(self, schedule):
        stats = LatencyStats.from_schedule(schedule)
        assert stats.count == schedule.tags_read_total
        assert 0 <= stats.mean <= stats.worst
        assert stats.median <= stats.p90 <= stats.p99 <= stats.worst
        assert stats.worst == schedule.size - 1  # last slot served something

    def test_empty_schedule(self):
        from repro.core.mcs import ScheduleOutcome, ScheduleResult

        empty = ScheduleResult(
            slots=[], tags_read_total=0, uncovered_tags=np.empty(0, dtype=np.int64),
            complete=True, outcome=ScheduleOutcome.complete,
        )
        stats = LatencyStats.from_schedule(empty)
        assert stats.count == 0 and stats.worst == 0

    def test_greedy_front_loads(self, schedule):
        """Exact-greedy serves most tags early: mean latency below the
        schedule midpoint."""
        stats = LatencyStats.from_schedule(schedule)
        assert stats.mean < (schedule.size - 1) / 2 + 1


class TestReaderServiceCounts:
    def test_totals_match(self, system, schedule):
        counts = reader_service_counts(system, schedule)
        assert counts.sum() == schedule.tags_read_total
        assert counts.shape == (system.num_readers,)

    def test_owners_cover_their_tags(self, system, schedule):
        counts = reader_service_counts(system, schedule)
        # a reader with zero coverage cannot have served anything
        empty_readers = np.flatnonzero(~system.coverage.any(axis=0))
        assert (counts[empty_readers] == 0).all()


class TestJainFairness:
    def test_perfectly_even(self):
        assert jain_fairness([5, 5, 5]) == pytest.approx(1.0)

    def test_single_dominator(self):
        # one active out of n: index = 1/n
        assert jain_fairness([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_empty_and_zero(self):
        assert jain_fairness([]) == 1.0
        assert jain_fairness([0, 0]) == 1.0

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            vals = rng.integers(0, 50, size=8)
            f = jain_fairness(vals)
            assert 0 < f <= 1.0 + 1e-12


class TestActivationStats:
    def test_consistency(self, system, schedule):
        stats = ActivationStats.from_schedule(system, schedule)
        assert stats.productive_activations <= stats.total_activations
        assert stats.tags_per_activation >= 1.0  # exact greedy wastes nothing big

    def test_summary_string(self, system, schedule):
        text = summarize_schedule(system, schedule)
        assert f"{schedule.size} slots" in text
        assert "fairness" in text
