"""Second property-test battery: cross-cutting invariants of the stack.

Complements ``test_property_solvers`` (solver contract) with randomized
invariants of persistence, multi-channel semantics, the shifted hierarchy's
integer arithmetic and the MCS driver.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import get_solver, greedy_covering_schedule
from repro.core.multichannel import (
    ChannelAssignment,
    empty_assignment,
    greedy_multichannel_assignment,
    is_channel_feasible,
    multichannel_weight,
)
from repro.geometry.shifting import ShiftedHierarchy, Square
from repro.io import system_from_dict, system_to_dict
from tests.conftest import system_strategy

RELAXED = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestPersistenceProperties:
    @given(system=system_strategy(max_readers=8, max_tags=25))
    @settings(**RELAXED)
    def test_roundtrip_preserves_all_matrices(self, system):
        clone = system_from_dict(system_to_dict(system))
        np.testing.assert_array_equal(clone.coverage, system.coverage)
        np.testing.assert_array_equal(clone.conflict, system.conflict)
        np.testing.assert_array_equal(
            clone.in_interference_range, system.in_interference_range
        )

    @given(system=system_strategy(max_readers=8, max_tags=25))
    @settings(**RELAXED)
    def test_roundtrip_preserves_solver_output(self, system):
        clone = system_from_dict(system_to_dict(system))
        a = get_solver("exact")(system, None, None)
        b = get_solver("exact")(clone, None, None)
        np.testing.assert_array_equal(a.active, b.active)


class TestMultichannelProperties:
    @given(
        system=system_strategy(max_readers=8, max_tags=25),
        channels=st.integers(1, 4),
    )
    @settings(**RELAXED)
    def test_greedy_assignment_always_channel_feasible(self, system, channels):
        assignment = greedy_multichannel_assignment(system, channels)
        assert is_channel_feasible(system, assignment)

    @given(system=system_strategy(max_readers=8, max_tags=25), data=st.data())
    @settings(**RELAXED)
    def test_single_channel_weight_matches_paper_model(self, system, data):
        n = system.num_readers
        members = data.draw(
            st.lists(st.integers(0, n - 1), max_size=n, unique=True)
        )
        assignment = empty_assignment(system, 1)
        for m in members:
            assignment = assignment.with_reader(m, 0)
        assert multichannel_weight(system, assignment) == system.weight(members)

    @given(system=system_strategy(max_readers=8, max_tags=25))
    @settings(**RELAXED)
    def test_weight_monotone_in_channels(self, system):
        weights = [
            multichannel_weight(system, greedy_multichannel_assignment(system, c))
            for c in (1, 2, 4)
        ]
        assert weights[0] <= weights[1] <= weights[2]


class TestShiftingProperties:
    @given(
        k=st.integers(2, 5),
        r=st.integers(0, 4),
        s=st.integers(0, 4),
        level=st.integers(0, 3),
        x=st.floats(-50, 50, allow_nan=False),
        y=st.floats(-50, 50, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    @example(k=2, r=0, s=0, level=0, x=0.0, y=43.99999999999999)
    def test_square_nesting_chain(self, k, r, s, level, x, y):
        r, s = r % k, s % k
        h = ShiftedHierarchy(
            np.array([[0.0, 0.0]]), np.array([0.5]), k=k, r=r, s=s
        )
        child = h.square_at(level + 1, (x, y))
        parent = h.square_at(level, (x, y))
        assert h.parent(child) == parent
        assert child in h.children(parent)
        assert h.ancestor(child, level) == parent

    @given(
        k=st.integers(2, 4),
        col=st.integers(-6, 6),
        row=st.integers(-6, 6),
        level=st.integers(0, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_children_partition_area(self, k, col, row, level):
        h = ShiftedHierarchy(
            np.array([[0.0, 0.0]]), np.array([0.5]), k=k, r=1 % k, s=0
        )
        sq = Square(level, col, row)
        x0, x1, y0, y1 = h.square_bounds(sq)
        kids = h.children(sq)
        assert len(kids) == (k + 1) ** 2
        total = sum(
            (b[1] - b[0]) * (b[3] - b[2]) for b in map(h.square_bounds, kids)
        )
        assert total == pytest.approx((x1 - x0) * (y1 - y0))


class TestMcsProperties:
    @given(system=system_strategy(max_readers=7, max_tags=25))
    @settings(**RELAXED)
    def test_schedule_partitions_coverable_tags(self, system):
        result = greedy_covering_schedule(system, get_solver("exact"))
        assert result.complete
        seen = [t for slot in result.slots for t in slot.tags_read.tolist()]
        assert len(seen) == len(set(seen))
        coverable = set(np.flatnonzero(system.covered_by_any()).tolist())
        assert set(seen) == coverable

    @given(system=system_strategy(max_readers=7, max_tags=25))
    @settings(**RELAXED)
    def test_every_slot_weight_positive(self, system):
        result = greedy_covering_schedule(system, get_solver("exact"))
        for slot in result.slots:
            assert slot.num_read >= 1
