"""Tests for multi-channel scheduling."""

import numpy as np
import pytest

from repro.core import exact_mwfs, greedy_covering_schedule, get_solver
from repro.core.multichannel import (
    INACTIVE,
    ChannelAssignment,
    coloring_multichannel_assignment,
    empty_assignment,
    greedy_multichannel_assignment,
    is_channel_feasible,
    multichannel_covering_schedule,
    multichannel_operational,
    multichannel_weight,
    multichannel_well_covered,
)
from tests.conftest import make_random_system


@pytest.fixture
def system():
    return make_random_system(14, 150, 40, 12, 6, seed=5)


class TestChannelAssignment:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelAssignment(np.array([0, 1]), num_channels=1)
        with pytest.raises(ValueError):
            ChannelAssignment(np.array([-2]), num_channels=2)
        with pytest.raises(ValueError):
            ChannelAssignment(np.array([0]), num_channels=0)

    def test_active_and_on_channel(self):
        a = ChannelAssignment(np.array([0, INACTIVE, 1, 0]), num_channels=2)
        np.testing.assert_array_equal(a.active, [0, 2, 3])
        np.testing.assert_array_equal(a.on_channel(0), [0, 3])
        np.testing.assert_array_equal(a.on_channel(1), [2])

    def test_with_reader_functional(self):
        a = ChannelAssignment(np.array([INACTIVE, INACTIVE]), num_channels=2)
        b = a.with_reader(1, 0)
        assert a.channels[1] == INACTIVE
        assert b.channels[1] == 0


class TestFeasibility:
    def test_conflicting_pair_same_channel_infeasible(self, line_system):
        a = empty_assignment(line_system, 2).with_reader(0, 0).with_reader(1, 0)
        assert not is_channel_feasible(line_system, a)

    def test_conflicting_pair_different_channels_feasible(self, line_system):
        a = empty_assignment(line_system, 2).with_reader(0, 0).with_reader(1, 1)
        assert is_channel_feasible(line_system, a)

    def test_empty_feasible(self, line_system):
        assert is_channel_feasible(line_system, empty_assignment(line_system, 3))


class TestWeightSemantics:
    def test_cross_channel_removes_rtc(self, line_system):
        """A and B conflict; same channel → mutual RTc → weight 0; split
        channels → both operational → their two exclusive tags are served."""
        same = empty_assignment(line_system, 2).with_reader(0, 0).with_reader(1, 0)
        split = empty_assignment(line_system, 2).with_reader(0, 0).with_reader(1, 1)
        assert multichannel_weight(line_system, same) == 0
        assert multichannel_weight(line_system, split) == 2

    def test_rrc_is_channel_blind(self, figure2_system):
        """Figure 2's overlap tags stay blanked even across channels: the
        tag cannot distinguish carriers by channel."""
        a = (
            empty_assignment(figure2_system, 3)
            .with_reader(0, 0)
            .with_reader(1, 1)
            .with_reader(2, 2)
        )
        assert multichannel_weight(figure2_system, a) == 3  # not 5

    def test_single_channel_matches_paper_model(self, system):
        """C = 1 must reproduce RFIDSystem.weight exactly."""
        rng = np.random.default_rng(0)
        for _ in range(20):
            members = rng.choice(system.num_readers, size=5, replace=False)
            a = empty_assignment(system, 1)
            for m in members:
                a = a.with_reader(int(m), 0)
            assert multichannel_weight(system, a) == system.weight(members)

    def test_operational_per_channel(self, line_system):
        split = empty_assignment(line_system, 2).with_reader(0, 0).with_reader(1, 1)
        np.testing.assert_array_equal(
            multichannel_operational(line_system, split), [0, 1]
        )

    def test_unread_mask(self, system):
        a = greedy_multichannel_assignment(system, 2)
        unread = np.zeros(system.num_tags, dtype=bool)
        assert multichannel_weight(system, a, unread) == 0

    def test_well_covered_mask_shape_checked(self, system):
        a = empty_assignment(system, 1).with_reader(0, 0)
        with pytest.raises(ValueError):
            multichannel_well_covered(system, a, np.array([True]))


class TestGreedyScheduler:
    def test_result_feasible(self, system):
        for c in (1, 2, 3):
            a = greedy_multichannel_assignment(system, c)
            assert is_channel_feasible(system, a)

    def test_more_channels_never_worse(self, system):
        w1 = multichannel_weight(system, greedy_multichannel_assignment(system, 1))
        w2 = multichannel_weight(system, greedy_multichannel_assignment(system, 2))
        w4 = multichannel_weight(system, greedy_multichannel_assignment(system, 4))
        assert w2 >= w1
        assert w4 >= w2

    def test_single_channel_at_least_singleton(self, system):
        a = greedy_multichannel_assignment(system, 1)
        best_solo = max(system.weight([i]) for i in range(system.num_readers))
        assert multichannel_weight(system, a) >= best_solo

    def test_multi_channel_beats_single_channel_opt_on_dense(self):
        """Two readers with huge interference disks but disjoint local tag
        pools: single-channel can only run one per slot, two channels run
        both."""
        from repro.model import build_system

        system = build_system(
            reader_positions=[[0.0, 0.0], [50.0, 0.0]],
            interference_radii=[100.0, 100.0],
            interrogation_radii=[5.0, 5.0],
            tag_positions=[[0.0, 1.0], [0.0, 2.0], [50.0, 1.0], [50.0, 2.0]],
        )
        assert system.conflict[0, 1]
        single_opt = exact_mwfs(system).weight
        assert single_opt == 2
        two = multichannel_weight(system, greedy_multichannel_assignment(system, 2))
        assert two == 4

    def test_validation(self, system):
        with pytest.raises(ValueError):
            greedy_multichannel_assignment(system, 0)


class TestColoringScheduler:
    def test_feasible(self, system):
        for c in (1, 2, 4):
            a = coloring_multichannel_assignment(system, c)
            assert is_channel_feasible(system, a)

    def test_pruning_never_hurts(self, system):
        raw = coloring_multichannel_assignment(system, 2, prune=False)
        pruned = coloring_multichannel_assignment(system, 2, prune=True)
        assert multichannel_weight(system, pruned) >= multichannel_weight(system, raw)

    def test_enough_channels_color_everyone(self, system):
        max_deg = int(system.conflict.sum(axis=1).max())
        a = coloring_multichannel_assignment(system, max_deg + 1, prune=False)
        assert len(a.active) == system.num_readers


class TestCoveringSchedule:
    def test_completes(self, system):
        result = multichannel_covering_schedule(system, 2)
        assert result.complete
        assert result.tags_read_total == int(system.covered_by_any().sum())

    def test_channels_reduce_or_tie_slots(self, system):
        s1 = multichannel_covering_schedule(system, 1).size
        s3 = multichannel_covering_schedule(system, 3).size
        assert s3 <= s1

    def test_coloring_scheduler_variant(self, system):
        result = multichannel_covering_schedule(system, 2, scheduler="coloring")
        assert result.complete

    def test_bad_scheduler(self, system):
        with pytest.raises(ValueError):
            multichannel_covering_schedule(system, 2, scheduler="magic")

    def test_slot_metadata_carries_channels(self, system):
        result = multichannel_covering_schedule(system, 2)
        for slot in result.slots:
            channels = slot.solver_meta["channels"]
            assert len(channels) == system.num_readers
