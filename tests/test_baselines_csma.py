"""Tests for the CSMA / listen-before-talk baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import csma_contention, csma_covering_schedule, csma_oneshot
from repro.core import exact_mwfs
from repro.core.mcs import ScheduleOutcome
from repro.model import Reader, RFIDSystem, Tag
from tests.conftest import make_random_system, system_strategy


@pytest.fixture
def system():
    return make_random_system(15, 150, 40, 12, 6, seed=9)


class TestContention:
    def test_winners_independent(self, system):
        for seed in range(8):
            winners = csma_contention(
                system, np.arange(system.num_readers), seed=seed
            )
            assert system.is_feasible(winners.tolist()), seed

    def test_only_participants_win(self, system):
        participants = np.array([0, 1, 2])
        winners = csma_contention(system, participants, seed=0)
        assert set(winners.tolist()) <= {0, 1, 2}

    def test_no_participants_no_winners(self, system):
        assert len(csma_contention(system, np.array([], dtype=int), seed=0)) == 0

    def test_isolated_reader_always_wins(self, line_system):
        # reader 2 interferes with nobody → wins every window it enters
        for seed in range(5):
            winners = csma_contention(line_system, np.array([2]), seed=seed)
            assert winners.tolist() == [2]

    def test_equal_backoff_neighbors_both_lose(self, line_system):
        """Force the collision path: with one backoff slot, interfering
        readers 0 and 1 always draw the same backoff and destroy each
        other; isolated reader 2 still wins."""
        winners = csma_contention(
            line_system, np.array([0, 1, 2]), backoff_slots=1, seed=0
        )
        assert winners.tolist() == [2]

    def test_deterministic_given_seed(self, system):
        a = csma_contention(system, np.arange(system.num_readers), seed=4)
        b = csma_contention(system, np.arange(system.num_readers), seed=4)
        np.testing.assert_array_equal(a, b)

    def test_backoff_validation(self, system):
        with pytest.raises(ValueError):
            csma_contention(system, np.array([0]), backoff_slots=0)

    @given(system=system_strategy(max_readers=8, max_tags=20), seed=st.integers(0, 30))
    @settings(max_examples=20, deadline=None)
    def test_property_always_feasible(self, system, seed):
        winners = csma_contention(system, np.arange(system.num_readers), seed=seed)
        assert system.is_feasible(winners.tolist())


class TestLossyCarrierSense:
    def test_lossless_runs_unchanged(self, system):
        a = csma_contention(system, np.arange(system.num_readers), seed=2)
        b = csma_contention(
            system, np.arange(system.num_readers), seed=2, loss_rate=0.0
        )
        np.testing.assert_array_equal(a, b)

    def test_heavy_loss_breaks_independence_sometimes(self, system):
        """With most BUSY preambles lost, interfering readers stop hearing
        each other — some contention windows yield infeasible winner sets
        (the hidden-carrier problem)."""
        broken = 0
        for seed in range(12):
            winners = csma_contention(
                system,
                np.arange(system.num_readers),
                seed=seed,
                loss_rate=0.85,
            )
            if not system.is_feasible(winners.tolist()):
                broken += 1
        assert broken > 0

    def test_loss_hurts_effective_weight_on_average(self, system):
        from repro.core.oneshot import make_result

        def mean_weight(loss):
            total = 0
            for seed in range(10):
                winners = csma_contention(
                    system,
                    np.arange(system.num_readers),
                    seed=seed,
                    loss_rate=loss,
                )
                total += make_result(system, winners).weight
            return total / 10

        assert mean_weight(0.85) < mean_weight(0.0)


class TestOneshot:
    def test_below_exact(self, system):
        res = csma_oneshot(system, seed=0)
        assert res.feasible
        assert res.weight <= exact_mwfs(system).weight

    def test_registry_access(self, system):
        from repro.core import get_solver

        res = get_solver("csma")(system, None, 3)
        assert res.meta["solver"] == "csma"

    def test_only_working_readers_contend(self, system):
        # with everything read, nobody has work → empty activation
        unread = np.zeros(system.num_tags, dtype=bool)
        res = csma_oneshot(system, unread, seed=0)
        assert res.size == 0


class TestCoveringSchedule:
    def test_completes(self, system):
        result = csma_covering_schedule(system, seed=0)
        assert result.complete
        assert result.tags_read_total == int(system.covered_by_any().sum())

    def test_slower_than_exact_greedy(self, system):
        from repro.core import get_solver, greedy_covering_schedule

        csma = csma_covering_schedule(system, seed=0)
        exact = greedy_covering_schedule(system, get_solver("exact"))
        assert csma.size >= exact.size

    def test_every_slot_feasible(self, system):
        result = csma_covering_schedule(system, seed=0)
        for slot in result.slots:
            assert system.is_feasible(slot.active.tolist())

    def test_blanked_winners_fall_back_to_one_reader(self):
        """Two non-interfering readers that both cover the only tag win
        every window together and blank it (RRc).  The shared slot loop
        falls back to the best single reader instead of contending until
        the cap."""
        system = RFIDSystem(
            [
                Reader(id=0, x=0, y=0, interference_radius=4, interrogation_radius=4),
                Reader(id=1, x=6, y=0, interference_radius=4, interrogation_radius=4),
            ],
            [Tag(id=0, x=3, y=0)],
        )
        result = csma_covering_schedule(system, seed=0)
        assert result.size == 1
        assert result.outcome == ScheduleOutcome.complete
        assert result.slots[0].active.tolist() == [0]
        assert result.slots[0].tags_read.tolist() == [0]
