"""Tests for repro.geometry.grid.SpatialHashGrid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.grid import SpatialHashGrid
from repro.geometry.points import points_in_radius


class TestConstruction:
    def test_len(self):
        grid = SpatialHashGrid(np.zeros((5, 2)), 1.0)
        assert len(grid) == 5

    def test_zero_cell_rejected(self):
        with pytest.raises(ValueError):
            SpatialHashGrid(np.zeros((1, 2)), 0.0)

    def test_properties(self):
        pts = np.array([[1.0, 2.0]])
        grid = SpatialHashGrid(pts, 2.5)
        assert grid.cell_size == 2.5
        np.testing.assert_array_equal(grid.points, pts)


class TestQueryRadius:
    def test_simple(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
        grid = SpatialHashGrid(pts, 1.0)
        np.testing.assert_array_equal(grid.query_radius([0, 0], 1.5), [0, 1])

    def test_boundary_inclusive(self):
        pts = np.array([[2.0, 0.0]])
        grid = SpatialHashGrid(pts, 1.0)
        assert list(grid.query_radius([0, 0], 2.0)) == [0]

    def test_negative_radius(self):
        grid = SpatialHashGrid(np.zeros((1, 2)), 1.0)
        with pytest.raises(ValueError):
            grid.query_radius([0, 0], -1)

    def test_negative_coordinates(self):
        pts = np.array([[-3.0, -3.0], [3.0, 3.0]])
        grid = SpatialHashGrid(pts, 1.0)
        np.testing.assert_array_equal(grid.query_radius([-3, -3], 0.5), [0])

    def test_count(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.0]])
        grid = SpatialHashGrid(pts, 1.0)
        assert grid.count_in_radius([0, 0], 1.0) == 2

    @given(
        seed=st.integers(0, 500),
        cell=st.floats(0.3, 8.0),
        radius=st.floats(0.0, 12.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_bruteforce(self, seed, cell, radius):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-10, 10, size=(30, 2))
        origin = rng.uniform(-10, 10, size=2)
        grid = SpatialHashGrid(pts, cell)
        fast = grid.query_radius(origin, radius)
        slow = points_in_radius(pts, origin, radius)
        np.testing.assert_array_equal(fast, slow)


class TestPairsWithin:
    def test_known_pairs(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
        grid = SpatialHashGrid(pts, 2.0)
        assert grid.pairs_within(1.5) == [(0, 1)]

    def test_no_self_pairs(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0]])
        grid = SpatialHashGrid(pts, 1.0)
        assert grid.pairs_within(0.1) == [(0, 1)]

    @given(seed=st.integers(0, 200), radius=st.floats(0.1, 6.0))
    @settings(max_examples=30, deadline=None)
    def test_matches_bruteforce(self, seed, radius):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 15, size=(20, 2))
        grid = SpatialHashGrid(pts, 2.0)
        got = set(grid.pairs_within(radius))
        want = {
            (i, j)
            for i in range(20)
            for j in range(i + 1, 20)
            if np.hypot(*(pts[i] - pts[j])) <= radius
        }
        assert got == want


class TestBuckets:
    @given(
        seed=st.integers(0, 500),
        n=st.integers(0, 60),
        cell=st.floats(0.3, 8.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_buckets_match_per_point_loop(self, seed, n, cell):
        """The lexsort bucketing equals the per-point append loop it
        replaced: same keys, each bucket ascending."""
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-10, 10, size=(n, 2))
        # integer coordinates put points exactly on bucket edges
        pts[: n // 2] = np.round(pts[: n // 2])
        grid = SpatialHashGrid(pts, cell)
        want = {}
        keys = np.floor(pts / cell).astype(np.int64)
        for idx, (kx, ky) in enumerate(keys):
            want.setdefault((int(kx), int(ky)), []).append(idx)
        got = {key: bucket.tolist() for key, bucket in grid._buckets.items()}
        assert got == want
