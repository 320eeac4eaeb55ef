"""Tests for repro.geometry.shifting — the PTAS grid substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.shifting import (
    ShiftedHierarchy,
    Square,
    disk_levels,
    scale_radii,
)


class TestScaleRadii:
    def test_max_becomes_half(self):
        scaled, factor = scale_radii(np.array([2.0, 8.0]))
        assert scaled.max() == pytest.approx(0.5)
        assert factor == pytest.approx(0.0625)

    def test_relative_sizes_preserved(self):
        scaled, _ = scale_radii(np.array([2.0, 8.0]))
        assert scaled[0] / scaled[1] == pytest.approx(0.25)

    def test_empty(self):
        scaled, factor = scale_radii(np.array([]))
        assert scaled.size == 0 and factor == 1.0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            scale_radii(np.array([0.0, -1.0]))


class TestDiskLevels:
    def test_level_zero_boundary(self):
        # 2R = 1 → level 0 exactly
        assert disk_levels(np.array([0.5]), k=3)[0] == 0

    def test_level_partition(self):
        # k=3: level j holds 1/4^{j+1} < 2R <= 1/4^j
        radii = np.array([0.5, 0.13, 0.12, 0.03])
        levels = disk_levels(radii, k=3)
        # 2R: 1.0→0, 0.26→0, 0.24→1, 0.06→2
        np.testing.assert_array_equal(levels, [0, 0, 1, 2])

    def test_requires_scaled(self):
        with pytest.raises(ValueError, match="scaled"):
            disk_levels(np.array([2.0]), k=3)

    def test_k_too_small(self):
        with pytest.raises(ValueError):
            disk_levels(np.array([0.5]), k=1)

    def test_exact_power_boundaries_stay_upper_level(self):
        # 2R = (k+1)^{-j} is the *closed* upper end of level j
        k = 3
        for j in range(4):
            r = 0.5 * (k + 1.0) ** (-j)
            assert disk_levels(np.array([r]), k=k)[0] == j


def make_hierarchy(centers, radii, k=3, r=0, s=0):
    return ShiftedHierarchy(np.asarray(centers, float), np.asarray(radii, float), k, r, s)


class TestSquareArithmetic:
    def test_spacing(self):
        h = make_hierarchy([[0.2, 0.2]], [0.5], k=3)
        assert h.spacing(0) == 1.0
        assert h.spacing(2) == pytest.approx(1 / 16)

    def test_square_side(self):
        h = make_hierarchy([[0.2, 0.2]], [0.5], k=3)
        assert h.square_side(0) == 3.0

    def test_square_at_bounds_contain_point(self):
        h = make_hierarchy([[0.2, 0.2]], [0.5], k=3, r=1, s=2)
        for pt in ([0.0, 0.0], [5.3, -2.7], [100.4, 33.3]):
            for level in (0, 1, 2):
                sq = h.square_at(level, pt)
                x0, x1, y0, y1 = h.square_bounds(sq)
                assert x0 <= pt[0] < x1
                assert y0 <= pt[1] < y1

    def test_children_tile_parent(self):
        h = make_hierarchy([[0.2, 0.2]], [0.5], k=3, r=2, s=1)
        parent = Square(0, 3, -2)
        kids = h.children(parent)
        assert len(kids) == (3 + 1) ** 2
        px0, px1, py0, py1 = h.square_bounds(parent)
        # children bounds union == parent bounds, disjoint interiors
        xs = sorted({h.square_bounds(c)[0] for c in kids})
        assert xs[0] == pytest.approx(px0)
        area = sum(
            (b[1] - b[0]) * (b[3] - b[2])
            for b in (h.square_bounds(c) for c in kids)
        )
        assert area == pytest.approx((px1 - px0) * (py1 - py0))

    def test_parent_of_child_roundtrip(self):
        h = make_hierarchy([[0.2, 0.2]], [0.5], k=3, r=1, s=1)
        parent = Square(1, 5, -7)
        for child in h.children(parent):
            assert h.parent(child) == parent

    def test_parent_of_child_with_huge_indices(self):
        # a float quotient rounds indices past 2**53; parent() must not
        h = ShiftedHierarchy([[0.3, 0.3]], [0.5], 3, 1, 2)
        q = 3**40 + 7
        child = Square(
            30, h.r + q * (h.k + 1) + h.k, h.s + q * (h.k + 1)
        )
        assert h.parent(child) == Square(29, q, q)
        assert child in h.children(h.parent(child))

    def test_parent_of_level0_raises(self):
        h = make_hierarchy([[0.2, 0.2]], [0.5], k=3)
        with pytest.raises(ValueError):
            h.parent(Square(0, 0, 0))

    def test_ancestor(self):
        h = make_hierarchy([[0.2, 0.2]], [0.5], k=2, r=0, s=0)
        sq = h.square_at(3, [0.7, 0.4])
        anc = h.ancestor(sq, 0)
        assert anc == h.square_at(0, [0.7, 0.4])

    def test_nesting_consistency(self):
        # square_at at level j+1 must be a child of square_at at level j
        h = make_hierarchy([[0.2, 0.2]], [0.5], k=3, r=2, s=0)
        for pt in ([0.33, 0.77], [4.2, 9.1], [-3.4, 0.02]):
            for level in (0, 1, 2):
                sq = h.square_at(level, pt)
                child = h.square_at(level + 1, pt)
                assert child in h.children(sq)


class TestSurvive:
    def test_survivor_strictly_inside_home_square(self):
        rng = np.random.default_rng(0)
        centers = rng.uniform(0, 10, size=(40, 2))
        radii = rng.uniform(0.05, 0.5, size=40)
        radii[0] = 0.5  # pin the max so levels are stable
        h = make_hierarchy(centers, radii, k=3, r=1, s=2)
        for i in h.survive_indices():
            sq = h.home_square(int(i))
            assert sq.level == h.levels[i]
            assert h.disk_inside_square(int(i), sq)

    def test_non_survivor_hits_a_line(self):
        # disk centered exactly on a shifted level-0 line
        h = make_hierarchy([[0.0, 0.5]], [0.5], k=3, r=0, s=0)
        assert not h.survives(0)

    def test_home_square_requires_survival(self):
        h = make_hierarchy([[0.0, 0.5]], [0.5], k=3, r=0, s=0)
        with pytest.raises(ValueError):
            h.home_square(0)

    def test_shift_rescues_disk(self):
        # same disk survives under a different shift residue
        h0 = make_hierarchy([[0.0, 0.5]], [0.5], k=3, r=0, s=0)
        h1 = make_hierarchy([[0.0, 0.5]], [0.5], k=3, r=1, s=1)
        assert not h0.survives(0)
        assert h1.survives(0)

    @given(seed=st.integers(0, 300), k=st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_every_disk_survives_some_shift(self, seed, k):
        """Theorem 2's engine: for each disk, ≥ (1−1/k)² of shifts keep it.

        In particular at least one of the k² shifts must keep every *single*
        disk (we check disk-wise, not set-wise)."""
        rng = np.random.default_rng(seed)
        centers = rng.uniform(0, 5, size=(10, 2))
        radii = rng.uniform(0.05, 0.5, size=10)
        radii[0] = 0.5
        hiers = {
            (r, s): make_hierarchy(centers, radii, k=k, r=r, s=s)
            for r in range(k)
            for s in range(k)
        }
        for i in range(10):
            surviving_shifts = sum(h.survives(i) for h in hiers.values())
            assert surviving_shifts >= (k - 1) ** 2, (
                f"disk {i} survives only {surviving_shifts} shifts"
            )

    def test_survive_fraction_matches_theory(self):
        # with many random disks, mean survival per shift ≈ (1-1/k)^2
        rng = np.random.default_rng(4)
        n = 400
        centers = rng.uniform(0, 50, size=(n, 2))
        radii = np.full(n, 0.5)
        k = 4
        fractions = []
        for r in range(k):
            for s in range(k):
                h = make_hierarchy(centers, radii, k=k, r=r, s=s)
                fractions.append(h.survive_mask.mean())
        theory = (1 - 1 / k) ** 2
        assert abs(np.mean(fractions) - theory) < 0.05


class TestDiskSquarePredicates:
    def test_disk_intersects_square(self):
        h = make_hierarchy([[1.5, 1.5], [10.0, 10.0]], [0.5, 0.4], k=3)
        sq = h.square_at(0, [1.5, 1.5])
        assert h.disk_intersects_square(0, sq)
        assert not h.disk_intersects_square(1, sq)

    def test_max_level(self):
        h = make_hierarchy([[0, 0], [1, 1]], [0.5, 0.01], k=3)
        assert h.max_level() == int(h.levels.max())


class TestValidation:
    def test_bad_shift_residues(self):
        with pytest.raises(ValueError):
            make_hierarchy([[0, 0]], [0.5], k=3, r=3, s=0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ShiftedHierarchy(np.zeros((2, 2)), np.array([0.5]), 3, 0, 0)
