"""Tests for repro.util.rng."""

import numpy as np
import pytest

from repro.util.rng import LazyRng, as_rng, derive_seed, spawn_rngs


class TestAsRng:
    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = as_rng(42).integers(0, 1 << 30, size=8)
        b = as_rng(42).integers(0, 1 << 30, size=8)
        np.testing.assert_array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = as_rng(1).integers(0, 1 << 30, size=8)
        b = as_rng(2).integers(0, 1 << 30, size=8)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_seed_sequence_accepted(self):
        seq = np.random.SeedSequence(5)
        gen = as_rng(seq)
        assert isinstance(gen, np.random.Generator)


class TestLazyRng:
    def test_not_built_until_used(self):
        lazy = LazyRng(5)
        assert lazy._rng is None
        assert as_rng(lazy) is as_rng(lazy)

    def test_same_stream_as_default_rng(self):
        np.testing.assert_array_equal(
            as_rng(LazyRng(5)).integers(0, 1 << 30, size=8),
            np.random.default_rng(5).integers(0, 1 << 30, size=8),
        )

    def test_spawns_like_its_generator(self):
        """spawn_rngs treats it as the generator it stands for, not as the
        bare int seed."""
        lazy = [g.integers(0, 1 << 30, 4) for g in spawn_rngs(LazyRng(5), 2)]
        gen = [
            g.integers(0, 1 << 30, 4)
            for g in spawn_rngs(np.random.default_rng(5), 2)
        ]
        bare = [g.integers(0, 1 << 30, 4) for g in spawn_rngs(5, 2)]
        np.testing.assert_array_equal(lazy, gen)
        assert not np.array_equal(lazy, bare)

    def test_derive_seed_rejects_it(self):
        with pytest.raises(TypeError):
            derive_seed(LazyRng(5), 1)


class TestSpawnRngs:
    def test_count(self):
        assert len(spawn_rngs(0, 5)) == 5

    def test_zero(self):
        assert len(spawn_rngs(0, 0)) == 0

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_children_independent_streams(self):
        a, b = spawn_rngs(7, 2)
        assert not np.array_equal(
            a.integers(0, 1 << 30, size=16), b.integers(0, 1 << 30, size=16)
        )

    def test_deterministic_from_int_seed(self):
        a1, a2 = spawn_rngs(9, 2)
        b1, b2 = spawn_rngs(9, 2)
        np.testing.assert_array_equal(
            a1.integers(0, 100, 8), b1.integers(0, 100, 8)
        )
        np.testing.assert_array_equal(
            a2.integers(0, 100, 8), b2.integers(0, 100, 8)
        )

    def test_spawn_from_generator(self):
        gen = np.random.default_rng(3)
        children = spawn_rngs(gen, 3)
        assert len(children) == 3


class TestDeriveSeed:
    def test_none_stays_none(self):
        assert derive_seed(None, 4) is None

    def test_deterministic(self):
        assert derive_seed(10, 3) == derive_seed(10, 3)

    def test_salt_changes_seed(self):
        assert derive_seed(10, 3) != derive_seed(10, 4)

    def test_base_changes_seed(self):
        assert derive_seed(10, 3) != derive_seed(11, 3)

    def test_generator_rejected(self):
        with pytest.raises(TypeError):
            derive_seed(np.random.default_rng(0), 1)
