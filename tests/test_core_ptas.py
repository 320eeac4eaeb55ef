"""Tests for Algorithm 1, the shifted-grid PTAS."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import exact_mwfs, ptas_mwfs
from repro.core.ptas import _enumerate_independent_subsets, _SquareIndex
from tests.conftest import make_random_system, system_strategy

#: Per-square enumeration budget for the Theorem 2 checks.  The bound holds
#: only for a complete enumeration; the default 200 cuts seed 0 at k=3 off
#: (as does 400), 1000 completes it, and every Thm 2 case completes here.
THM2_ENUM_BUDGET = 2000


def _thm2_run(system, **kw):
    """``(opt, ptas)`` weights, both from complete searches: the bound is
    a statement about the exact optimum and the un-truncated PTAS."""
    opt = exact_mwfs(system)
    assert not opt.meta["budget_exhausted"]
    res = ptas_mwfs(system, enum_budget=THM2_ENUM_BUDGET, **kw)
    assert not res.meta["budget_exhausted"]
    assert system.is_feasible(res.active)
    return opt.weight, res.weight


class TestBasics:
    def test_feasible_always(self, small_system):
        result = ptas_mwfs(small_system, k=3)
        assert result.feasible
        assert small_system.is_feasible(result.active)

    def test_empty_system(self):
        from repro.model import RFIDSystem

        result = ptas_mwfs(RFIDSystem([], []))
        assert result.size == 0 and result.weight == 0

    def test_single_reader(self):
        system = make_random_system(1, 20, 10, 6, 4, seed=0)
        result = ptas_mwfs(system, k=2)
        assert result.size == 1
        assert result.weight == system.weight([0])

    def test_deterministic(self, small_system):
        a = ptas_mwfs(small_system, k=3)
        b = ptas_mwfs(small_system, k=3)
        np.testing.assert_array_equal(a.active, b.active)

    def test_k_below_two_rejected(self, small_system):
        with pytest.raises(ValueError):
            ptas_mwfs(small_system, k=1)

    def test_meta_fields(self, small_system):
        result = ptas_mwfs(small_system, k=2)
        assert result.meta["solver"] == "ptas"
        assert result.meta["k"] == 2
        assert "budget_exhausted" in result.meta

    def test_figure2(self, figure2_system):
        assert ptas_mwfs(figure2_system, k=3).weight == 4


class TestApproximationGuarantee:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("k", [2, 3])
    def test_theorem2_bound(self, seed, k):
        """w(PTAS) ≥ (1 − 1/k)² · w(OPT), even without polish."""
        system = make_random_system(14, 120, 40, 9, 6, seed=seed)
        opt, weight = _thm2_run(system, k=k, polish=False)
        assert weight >= (1 - 1 / k) ** 2 * opt - 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_with_polish_near_exact(self, seed):
        system = make_random_system(14, 120, 40, 9, 6, seed=seed)
        opt = exact_mwfs(system).weight
        res = ptas_mwfs(system, k=3, polish=True)
        assert res.weight >= 0.9 * opt

    def test_polish_never_hurts(self, small_system):
        raw = ptas_mwfs(small_system, k=2, polish=False)
        pol = ptas_mwfs(small_system, k=2, polish=True)
        assert pol.weight >= raw.weight

    def test_never_below_best_singleton(self, small_system):
        res = ptas_mwfs(small_system, k=2, polish=False)
        best_solo = max(
            small_system.weight([i]) for i in range(small_system.num_readers)
        )
        assert res.weight >= best_solo

    @given(system=system_strategy(max_readers=8, max_tags=30))
    @settings(max_examples=20, deadline=None)
    def test_property_feasible_and_bounded(self, system):
        res = ptas_mwfs(system, k=2)
        assert system.is_feasible(res.active)
        assert res.weight <= exact_mwfs(system).weight


class TestShiftControl:
    def test_single_shift_weaker_or_equal(self, small_system):
        all_shifts = ptas_mwfs(small_system, k=3, polish=False)
        one_shift = ptas_mwfs(small_system, k=3, shifts=[(0, 0)], polish=False)
        assert one_shift.weight <= all_shifts.weight

    def test_best_shift_reported(self, small_system):
        res = ptas_mwfs(small_system, k=3, polish=False)
        shift = res.meta["shift"]
        if shift is not None:
            r, s = shift
            assert 0 <= r < 3 and 0 <= s < 3


class TestHeterogeneousRadii:
    def test_multi_level_instance(self):
        """Radii spanning 40x force several grid levels."""
        rng = np.random.default_rng(0)
        n = 16
        positions = rng.uniform(0, 60, size=(n, 2))
        interference = np.concatenate(
            [np.full(4, 20.0), np.full(6, 4.0), np.full(6, 0.5)]
        )
        interrogation = interference * 0.8
        tags = rng.uniform(0, 60, size=(200, 2))
        from repro.model import build_system

        system = build_system(positions, interference, interrogation, tags)
        opt, weight = _thm2_run(system, k=3)
        assert weight >= (1 - 1 / 3) ** 2 * opt - 1e-9

    def test_identical_radii_udg_case(self):
        """All-equal radii (the prior-work UDG model) is a special case."""
        system = make_random_system(12, 100, 35, 8, 5, seed=1)
        from repro.model import build_system

        flat = build_system(
            system.reader_positions,
            np.full(12, 8.0),
            np.full(12, 5.0),
            system.tag_positions,
        )
        opt, weight = _thm2_run(flat, k=3)
        assert weight >= (1 - 1 / 3) ** 2 * opt - 1e-9


class TestEnumerationBudget:
    """An internal square whose own disks have more independent subsets
    than ``enum_budget`` is cut off, and the cut-off is reported."""

    @staticmethod
    def _system():
        from repro.model import build_system

        rng = np.random.default_rng(0)
        positions = rng.uniform(0, 60, size=(16, 2))
        interference = np.concatenate(
            [np.full(4, 20.0), np.full(6, 4.0), np.full(6, 0.5)]
        )
        tags = rng.uniform(0, 60, size=(200, 2))
        return build_system(positions, interference, interference * 0.8, tags)

    def test_cut_off_sets_budget_exhausted(self):
        system = self._system()
        roomy = ptas_mwfs(system, k=3, polish=False)
        assert not roomy.meta["budget_exhausted"]
        tight = ptas_mwfs(system, k=3, polish=False, enum_budget=2)
        assert tight.meta["budget_exhausted"]
        np.testing.assert_array_equal(tight.active, roomy.active)


class TestCrossLevelDP:
    """Exercise the DP's level recursion directly: a coarse disk competes
    with finer disks nested inside its interference region, and the right
    answer requires comparing D={big} against the children's solutions."""

    @pytest.fixture
    def nested_system(self):
        from repro.model import build_system

        # Big reader B (R=10) at the centre; two small readers inside its
        # interference disk (conflict with B, independent of each other).
        # B serves 3 tags; each small reader serves 4 exclusive tags.
        readers = np.array([[50.0, 50.0], [46.0, 50.0], [54.0, 50.0]])
        interference = np.array([10.0, 0.8, 0.8])
        interrogation = np.array([2.0, 0.8, 0.8])
        tags = []
        tags += [[50.0, 50.0 + 0.3 * i] for i in range(1, 4)]   # B only
        tags += [[46.0, 50.0 + 0.15 * i] for i in range(1, 5)]  # s1 only
        tags += [[54.0, 50.0 + 0.15 * i] for i in range(1, 5)]  # s2 only
        return build_system(readers, interference, interrogation, np.array(tags))

    def test_structure(self, nested_system):
        # B conflicts with both small readers; the small ones are independent
        assert nested_system.conflict[0, 1] and nested_system.conflict[0, 2]
        assert not nested_system.conflict[1, 2]
        assert nested_system.weight([0]) == 3
        assert nested_system.weight([1, 2]) == 8

    def test_levels_span_hierarchy(self, nested_system):
        from repro.geometry.shifting import disk_levels, scale_radii

        scaled, _ = scale_radii(nested_system.interference_radii)
        levels = disk_levels(scaled, k=3)
        assert levels[0] == 0
        assert levels[1] >= 1 and levels[2] >= 1

    def test_dp_prefers_nested_disks(self, nested_system):
        # polish disabled: the DP itself must make the cross-level choice
        result = ptas_mwfs(nested_system, k=3, polish=False)
        assert result.weight == 8
        np.testing.assert_array_equal(result.active, [1, 2])

    def test_dp_prefers_big_disk_when_it_wins(self):
        from repro.model import build_system

        # same geometry, but B now serves 10 tags and the small ones 1 each
        readers = np.array([[50.0, 50.0], [46.0, 50.0], [54.0, 50.0]])
        interference = np.array([10.0, 0.8, 0.8])
        interrogation = np.array([3.0, 0.8, 0.8])
        tags = [[50.0, 50.0 + 0.2 * i] for i in range(1, 11)]
        tags += [[46.0, 50.3], [54.0, 50.3]]
        system = build_system(readers, interference, interrogation, np.array(tags))
        assert system.weight([0]) == 10
        result = ptas_mwfs(system, k=3, polish=False)
        assert result.weight == 10
        np.testing.assert_array_equal(result.active, [0])


class TestSubsetEnumeration:
    def test_yields_empty_first(self):
        conflict = np.zeros((3, 3), dtype=bool)
        subsets = list(_enumerate_independent_subsets([0, 1, 2], conflict, None, 100))
        assert subsets[0] == ()

    def test_respects_conflicts(self):
        conflict = np.zeros((3, 3), dtype=bool)
        conflict[0, 1] = conflict[1, 0] = True
        subsets = set(
            _enumerate_independent_subsets([0, 1, 2], conflict, None, 100)
        )
        assert (0, 1) not in subsets and (0, 1, 2) not in subsets
        assert (0, 2) in subsets and (1, 2) in subsets

    def test_respects_max_size(self):
        conflict = np.zeros((4, 4), dtype=bool)
        subsets = _enumerate_independent_subsets([0, 1, 2, 3], conflict, 2, 1000)
        assert max(len(s) for s in subsets) == 2

    def test_respects_budget(self):
        conflict = np.zeros((10, 10), dtype=bool)
        subsets = list(
            _enumerate_independent_subsets(list(range(10)), conflict, None, 7)
        )
        assert len(subsets) == 7

    def test_complete_without_budget_pressure(self):
        conflict = np.zeros((3, 3), dtype=bool)
        subsets = set(
            _enumerate_independent_subsets([0, 1, 2], conflict, None, 10_000)
        )
        assert len(subsets) == 8  # all subsets of a 3-element independent set


def _shift_indices(system, k):
    """The PTAS's interned square index for every ``(r, s)``-shift."""
    from repro.geometry.shifting import ShiftedHierarchy, scale_radii

    scaled, factor = scale_radii(system.interference_radii)
    centers = system.reader_positions * factor
    for r in range(k):
        for s in range(k):
            yield _SquareIndex(ShiftedHierarchy(centers, scaled, k, r, s))


def _reference_view(h, live):
    """The per-disk ``square_at`` definition of the DP's square contents."""
    own, occupied, tops = {}, {}, set()
    for i in h.survive_indices().tolist():
        if not live(i):
            continue
        li = int(h.levels[i])
        for lev in range(li + 1):
            sq = h.square_at(lev, h.centers[i])
            occupied[sq] = occupied.get(sq, 0) + 1
            if lev == li:
                own.setdefault(sq, []).append(i)
            if lev == 0:
                tops.add(sq)
    return own, occupied, sorted(tops)


class TestSquareIndex:
    """The interned index against the ``ShiftedHierarchy`` geometry it
    replaces, over every shift of small random systems."""

    @given(
        system=system_strategy(max_readers=12, max_tags=0),
        k=st.sampled_from([2, 3]),
    )
    @settings(max_examples=40, deadline=None)
    def test_ids_sorted_and_children_in_hierarchy_order(self, system, k):
        for index in _shift_indices(system, k):
            h, squares = index.h, index.squares
            assert squares == sorted(set(squares))
            ids = {sq: sid for sid, sq in enumerate(squares)}
            for sid, sq in enumerate(squares):
                assert index.children[sid] == [
                    ids[c] for c in h.children(sq) if c in ids
                ]

    @given(
        system=system_strategy(max_readers=12, max_tags=0),
        k=st.sampled_from([2, 3]),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_hits_match_intersection_predicate(self, system, k, data):
        n = system.num_readers
        bits = st.integers(min_value=0, max_value=(1 << n) - 1)
        for index in _shift_indices(system, k):
            if not index.squares:
                continue
            sid = st.integers(min_value=0, max_value=len(index.squares) - 1)
            # repeated queries on one square reuse the lazily filled masks
            for sq_id, mask in data.draw(st.lists(st.tuples(sid, bits), max_size=8)):
                sq = index.squares[sq_id]
                expected = sum(
                    1 << i
                    for i in range(n)
                    if mask >> i & 1 and index.h.disk_intersects_square(i, sq)
                )
                assert index.hits(sq_id, mask) == expected

    @given(
        system=system_strategy(max_readers=12, max_tags=0),
        k=st.sampled_from([2, 3]),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_live_view_matches_per_disk_definition(self, system, k, data):
        live_set = data.draw(
            st.sets(st.integers(min_value=0, max_value=system.num_readers - 1))
        )
        for index in _shift_indices(system, k):
            for live in (live_set.__contains__, lambda i: True):
                own, occupied, tops = index.view(live)
                ref_own, ref_occupied, ref_tops = _reference_view(index.h, live)
                squares = index.squares
                assert {
                    squares[sid]: lst for sid, lst in enumerate(own) if lst
                } == ref_own
                assert {
                    squares[sid]: c for sid, c in enumerate(occupied) if c
                } == ref_occupied
                assert [squares[sid] for sid in tops] == ref_tops
            assert index.full == index.view()
