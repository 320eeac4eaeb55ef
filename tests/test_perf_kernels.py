"""Equivalence and determinism tests for the ``repro.perf`` kernel layer.

The layer's contract (``docs/performance.md``) is that no kernel changes
*what* is computed — packed popcounts, the incremental generalised-weight
engine and the worker pool must reproduce the reference NumPy
paths bit-for-bit.  This suite pins that contract:

* packed coverage words/masks against naive per-column packing;
* :class:`BitsetWeightOracle` and :class:`GeneralizedWeightClimber`
  against :meth:`RFIDSystem.weight` on feasible **and infeasible** sets;
* ``run_sweep(workers=4)`` byte-identical to the serial run;
* ``run_bench_matrix(workers=2)`` counter-identical to the serial run;
* the quick-matrix work counters against the committed BENCH baselines
  (the perf-regression tripwire: a drift in ``sets_evaluated`` /
  ``sets_by_context`` means an optimisation changed semantics).
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.model.weights import BitsetWeightOracle
from repro.perf import (
    GeneralizedWeightClimber,
    PackedCoverage,
    WorkerPool,
    conflict_bits,
    popcount_words,
    resolve_workers,
    silencer_bits,
    system_memo,
)
from repro.perf.packed import _BYTE_POPCOUNT, pack_bool_to_words, pack_square_bool
from tests.conftest import make_random_system, system_strategy

REPO_ROOT = Path(__file__).resolve().parent.parent

PROP_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _naive_mask(coverage: np.ndarray, reader: int) -> int:
    mask = 0
    for t in np.flatnonzero(coverage[:, reader]):
        mask |= 1 << int(t)
    return mask


def _table_popcount(words: np.ndarray) -> np.ndarray:
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    counts = _BYTE_POPCOUNT[as_bytes].reshape(words.shape + (-1,))
    return counts.sum(axis=-1, dtype=np.int64)


class TestPackedCoverage:
    @given(system=system_strategy(max_readers=8, max_tags=70))
    @settings(**PROP_SETTINGS)
    def test_masks_match_naive_bit_loop(self, system):
        packed = PackedCoverage(system.coverage)
        for i in range(system.num_readers):
            assert packed.masks[i] == _naive_mask(system.coverage, i)
        assert packed.full_mask == (1 << system.num_tags) - 1

    @given(system=system_strategy(max_readers=8, max_tags=70), seed=st.integers(0, 2**16))
    @settings(**PROP_SETTINGS)
    def test_covered_counts_match_numpy(self, system, seed):
        packed = PackedCoverage(system.coverage)
        rng = np.random.default_rng(seed)
        unread = rng.random(system.num_tags) < 0.6
        expected_full = system.coverage.sum(axis=0).astype(np.int64)
        expected_masked = (system.coverage & unread[:, None]).sum(axis=0)
        assert np.array_equal(packed.covered_counts(), expected_full)
        assert np.array_equal(packed.covered_counts(unread), expected_masked)

    @given(system=system_strategy(max_readers=6, max_tags=70))
    @settings(**PROP_SETTINGS)
    def test_words_and_masks_agree(self, system):
        packed = PackedCoverage(system.coverage)
        for i in range(system.num_readers):
            rebuilt = int.from_bytes(
                np.ascontiguousarray(packed.words[i]).view(np.uint8).tobytes(),
                "little",
            ) if system.num_tags else 0
            assert rebuilt == packed.masks[i]

    def test_pack_mask_validates_shape(self):
        packed = PackedCoverage(np.zeros((10, 3), dtype=bool))
        with pytest.raises(ValueError, match="unread mask must have shape"):
            packed.pack_mask(np.zeros(9, dtype=bool))

    @pytest.mark.parametrize("length", [70, 99, 101, 128])
    def test_covered_counts_validates_shape(self, length):
        # 70..128 tags pack into the same two words as the system's 100, so
        # a word-count check alone would accept them.
        packed = PackedCoverage(np.ones((100, 3), dtype=bool))
        with pytest.raises(ValueError, match="unread mask must have shape"):
            packed.covered_counts(np.ones(length, dtype=bool))

    def test_popcount_matches_table_fallback(self):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2**63, size=(7, 5)).astype(np.uint64)
        assert np.array_equal(popcount_words(words), _table_popcount(words))

    def test_pack_bool_roundtrip(self):
        rng = np.random.default_rng(1)
        arr = rng.random(130) < 0.5
        words = pack_bool_to_words(arr)
        assert words.shape == (3,)
        assert int(popcount_words(words).sum()) == int(arr.sum())


class TestSystemCaches:
    def test_packed_coverage_is_cached(self):
        system = make_random_system(8, 60, 30.0, 8.0, 5.0, seed=5)
        assert system.packed_coverage is system.packed_coverage

    def test_system_memo_builds_once(self):
        system = make_random_system(6, 40, 30.0, 8.0, 5.0, seed=6)
        calls = []
        a = system_memo(system, "k", lambda: calls.append(1) or object())
        b = system_memo(system, "k", lambda: calls.append(1) or object())
        assert a is b
        assert calls == [1]

    def test_conflict_and_silencer_bits_match_matrices(self):
        system = make_random_system(10, 50, 30.0, 10.0, 5.0, seed=7)
        conf = conflict_bits(system)
        sil = silencer_bits(system)
        assert conf == pack_square_bool(system.conflict)
        assert sil == pack_square_bool(system.in_interference_range)
        for i in range(system.num_readers):
            for j in range(system.num_readers):
                assert bool(conf[i] >> j & 1) == bool(system.conflict[i, j])


class TestWeightEquivalence:
    """Packed oracle == big-int oracle == NumPy ``system.weight``."""

    @given(
        system=system_strategy(max_readers=8, max_tags=50),
        seed=st.integers(0, 2**16),
        use_unread=st.booleans(),
    )
    @settings(**PROP_SETTINGS)
    def test_feasible_sets_all_three_paths_agree(self, system, seed, use_unread):
        rng = np.random.default_rng(seed)
        unread = (rng.random(system.num_tags) < 0.7) if use_unread else None
        # draw an arbitrary reader order, keep a conflict-free prefix subset
        order = rng.permutation(system.num_readers)
        feasible = []
        for r in order:
            if not any(system.conflict[r, f] for f in feasible):
                feasible.append(int(r))
        oracle = BitsetWeightOracle(system, unread)
        climber = GeneralizedWeightClimber(system, unread)
        for r in feasible:
            climber.add(r)
        expected = system.weight(feasible, unread)
        assert oracle.weight_of(feasible) == expected
        assert climber.current_weight() == expected

    @given(
        system=system_strategy(max_readers=8, max_tags=50),
        seed=st.integers(0, 2**16),
        use_unread=st.booleans(),
    )
    @settings(**PROP_SETTINGS)
    def test_infeasible_sets_climber_matches_numpy(self, system, seed, use_unread):
        rng = np.random.default_rng(seed)
        unread = (rng.random(system.num_tags) < 0.7) if use_unread else None
        active = sorted(
            int(r)
            for r in np.flatnonzero(rng.random(system.num_readers) < 0.5)
        )
        climber = GeneralizedWeightClimber(system, unread)
        for r in active:
            climber.add(r)
        assert climber.current_weight() == system.weight(active, unread)

    @given(
        system=system_strategy(max_readers=8, max_tags=50),
        seed=st.integers(0, 2**16),
    )
    @settings(**PROP_SETTINGS)
    def test_weight_with_matches_numpy_on_next_reader(self, system, seed):
        rng = np.random.default_rng(seed)
        active = [
            int(r) for r in np.flatnonzero(rng.random(system.num_readers) < 0.4)
        ]
        climber = GeneralizedWeightClimber(system)
        for r in active:
            climber.add(r)
        for cand in range(system.num_readers):
            if cand in active:
                continue
            assert climber.weight_with(cand) == system.weight(active + [cand])

    @given(system=system_strategy(max_readers=8, max_tags=50))
    @settings(**PROP_SETTINGS)
    def test_oracle_weight_with_equals_push_pop(self, system):
        oracle = BitsetWeightOracle(system)
        pushed = []
        for r in range(0, system.num_readers, 2):
            oracle.push(r)
            pushed.append(r)
        for cand in range(system.num_readers):
            oracle.push(cand)
            expected = oracle.current_weight()
            oracle.pop()
            assert oracle.weight_with(cand) == expected


def _measure_for_sweep(value, seed):
    # pure function of (value, seed): byte-identical across processes
    rng = np.random.default_rng(int(seed) + int(value * 1000))
    return {"alg_a": float(rng.integers(0, 100)) + value, "alg_b": float(seed)}


class TestParallelExecution:
    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(-1) >= 1
        assert resolve_workers(np.int64(2)) == 2
        for bad in (2.5, 2.0, True, False, "two"):
            with pytest.raises(ValueError):
                resolve_workers(bad)

    # test_fork_map_*: a map over forked workers, i.e. WorkerPool.map
    def test_fork_map_preserves_order(self):
        payloads = list(range(20))
        with WorkerPool(4) as pool:
            assert pool.map(lambda x: x * x, payloads) == [
                x * x for x in payloads
            ]

    def test_fork_map_serial_fallback(self):
        for workers in (None, 0, 1):
            with WorkerPool(workers) as pool:
                assert pool.mode == "serial"
                assert pool.map(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]
                assert not pool.started

    # test_fork_map_thread_fallback_*: the fork-less fallback, which maps
    # serially in process
    def test_fork_map_thread_fallback_without_fork(self, monkeypatch):
        """On a platform without ``os.fork`` (Windows, spawn-only builds)
        a pooled map must warn once and run serially in process, never
        starting a worker, with payload-ordered results."""
        import os as os_module

        from repro.perf import parallel as parallel_module

        monkeypatch.delattr(os_module, "fork")
        monkeypatch.setattr(parallel_module, "_NO_FORK_WARNED", False)
        payloads = list(range(17))
        with pytest.warns(RuntimeWarning, match="os.fork unavailable"):
            with WorkerPool(4) as pool:
                assert pool.mode == "serial"
                got = pool.map(lambda x: x * 3 + 1, payloads)
                assert not pool.started
        assert got == [x * 3 + 1 for x in payloads]

    def test_fork_map_thread_fallback_spawn_only(self, monkeypatch):
        """The same degradation triggers when fork exists but is not an
        available multiprocessing start method."""
        import multiprocessing

        from repro.perf import parallel as parallel_module

        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        monkeypatch.setattr(parallel_module, "_NO_FORK_WARNED", False)
        with pytest.warns(RuntimeWarning, match="os.fork unavailable"):
            with WorkerPool(2) as pool:
                assert pool.mode == "serial"
                got = pool.map(lambda x: x - 1, [5, 6, 7])
                assert not pool.started
        assert got == [4, 5, 6]

    def test_fork_map_thread_fallback_warns_once_per_process(
        self, monkeypatch
    ):
        """The degradation warning fires on the first fork-less map only —
        the platform does not change between pools, so later pools stay
        silent (and still produce ordered results)."""
        import os as os_module
        import warnings as warnings_module

        from repro.perf import parallel as parallel_module

        monkeypatch.delattr(os_module, "fork")
        monkeypatch.setattr(parallel_module, "_NO_FORK_WARNED", False)
        with pytest.warns(RuntimeWarning, match="os.fork unavailable"):
            with WorkerPool(2) as pool:
                pool.map(lambda x: x + 1, [1, 2, 3])
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            with WorkerPool(2) as pool:
                got = pool.map(lambda x: x + 1, [4, 5, 6])
                assert pool.mode == "serial" and not pool.started
        assert got == [5, 6, 7]

    def test_fork_map_serial_paths_never_warn(self, monkeypatch):
        """A serial pool and an empty map stay silent even on fork-less
        platforms — nothing platform-specific runs."""
        import os as os_module
        import warnings as warnings_module

        monkeypatch.delattr(os_module, "fork")
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            with WorkerPool(1) as pool:
                assert pool.map(lambda x: x, [1, 2, 3]) == [1, 2, 3]
            with WorkerPool(4) as pool:
                assert pool.map(lambda x: x, []) == []
                assert not pool.started

    def test_run_sweep_parallel_byte_identical_to_serial(self):
        from repro.experiments.sweep import run_sweep

        serial = run_sweep(
            "lam", [1.0, 2.0, 3.0], _measure_for_sweep, seeds=[0, 1], workers=None
        )
        parallel = run_sweep(
            "lam", [1.0, 2.0, 3.0], _measure_for_sweep, seeds=[0, 1], workers=4
        )
        assert parallel.raw == serial.raw
        assert parallel.param_values == serial.param_values
        assert parallel.metrics == serial.metrics
        assert {k: (s.mean, s.std) for k, s in parallel.stats.items()} == {
            k: (s.mean, s.std) for k, s in serial.stats.items()
        }

    def test_run_sweep_parallel_emits_sweep_points_in_parent(self):
        from repro.experiments.sweep import run_sweep
        from repro.obs.collectors import RunCollector
        from repro.obs.events import recording

        collector = RunCollector()
        with recording(collector):
            run_sweep("lam", [1.0, 2.0], _measure_for_sweep, seeds=[0], workers=2)
        assert collector.summary()["sweep_points"] == 2


def _strip_volatile(record):
    metrics = {
        k: v
        for k, v in record["metrics"].items()
        if "wall_clock" not in k
        and not k.endswith("_seconds_by_name")
        and k != "histograms"  # wall-clock distributions, machine-local
        and not k.endswith("_kb")  # memory peaks, per process
    }
    return {
        "bench": record["bench"],
        "label": record["label"],
        "solver": record["solver"],
        "scenario": record["scenario"],
        "metrics": metrics,
    }


@pytest.mark.bench_smoke
class TestBenchDeterminism:
    def test_parallel_bench_counters_identical_to_serial(self):
        from repro.obs.bench import QUICK_MATRIX, run_bench_matrix

        serial = run_bench_matrix(QUICK_MATRIX)
        parallel = run_bench_matrix(QUICK_MATRIX, workers=2)
        for family in ("oneshot", "mcs"):
            assert [_strip_volatile(r) for r in parallel[family]] == [
                _strip_volatile(r) for r in serial[family]
            ]

    def test_quick_counters_match_committed_baseline(self):
        """Perf-regression tripwire: the pinned-seed quick matrix must
        reproduce the work counters of the committed BENCH baselines.  A
        drift in ``sets_evaluated`` / ``sets_by_context`` means a change
        altered *what* the solvers compute, not just how fast."""
        from repro.obs.bench import QUICK_MATRIX, run_bench_matrix

        fresh = run_bench_matrix(QUICK_MATRIX)
        keys_by_family = {
            "oneshot": ("sets_evaluated", "sets_by_context", "weight"),
            "mcs": (
                "sets_evaluated",
                "sets_by_context",
                "rrc_blocked",
                "rtc_silenced",
                "slots_to_completion",
            ),
        }
        for family, keys in keys_by_family.items():
            path = REPO_ROOT / f"BENCH_{family}.json"
            assert path.exists(), f"committed baseline {path.name} missing"
            runs = json.loads(path.read_text())["runs"]
            for record in fresh[family]:
                baselines = [r for r in runs if r["label"] == record["label"]]
                assert baselines, f"no committed baseline run for {record['label']}"
                latest = baselines[-1]
                for key in keys:
                    assert record["metrics"][key] == latest["metrics"][key], (
                        family,
                        record["label"],
                        key,
                    )
