"""Contract tests for the solver-kernel backend layer (``docs/backends.md``).

Three layers of the bit-identity contract are pinned here:

* **kernel equivalence** — every :class:`WeightKernel` method of the
  ``numpy`` backend returns the same integers as the ``pure`` reference on
  random mask states, including the edges the batching must not mishandle
  (empty frontiers, all-zero unread masks, word-boundary tag counts,
  frontiers straddling ``BATCH_MIN``);
* **selection** — the flag > process-default > environment > auto
  precedence chain, the warn-once auto fallback, and the error contract
  for unknown/unavailable names;
* **solver equivalence** — every solver path that consumes a kernel
  (exact, ptas, centralized, localsearch, ghc in both gain modes, and the
  MCS driver in plain / incremental / fault-injected runs) produces the
  same schedules and the same work counters under both backends.
"""


import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.mcs import greedy_covering_schedule
from repro.core.oneshot import get_solver
from repro.faults import FaultPlan, PermanentCrash
from repro.model.weights import BitsetWeightOracle
from repro.obs.collectors import RunCollector
from repro.obs.events import recording
from repro.perf.backends import (
    BACKEND_ENV_VAR,
    KERNEL_METHODS,
    NumpyKernel,
    PureKernel,
    WeightKernel,
    available_backends,
    get_default_backend,
    kernel_for,
    resolve_backend,
    set_default_backend,
    use_backend,
    _reset_selection_for_tests,
)
from repro.perf.backends.numpy_batched import BATCH_MIN
from repro.perf.incremental import GeneralizedWeightClimber
from tests.conftest import make_random_system


@pytest.fixture(autouse=True)
def _clean_selection(monkeypatch):
    """Isolate every test from ambient selection state."""
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    _reset_selection_for_tests()
    yield
    _reset_selection_for_tests()


# ---------------------------------------------------------------------------
# kernel equivalence on random mask states
# ---------------------------------------------------------------------------
def _random_state(system, rng, *, zero_unread=False):
    """A coherent (climber, oracle, unread) state: a random reader subset
    committed through both engines, over a random (or all-zero) unread
    mask."""
    n, m = system.num_readers, system.num_tags
    if zero_unread:
        unread = np.zeros(m, dtype=bool)
    else:
        unread = rng.random(m) < 0.7 if m else np.zeros(0, dtype=bool)
    climber = GeneralizedWeightClimber(system, unread)
    climber.fresh  # materialise, so the adds below maintain it
    oracle = BitsetWeightOracle(system, unread)
    k = int(rng.integers(0, max(n // 2, 1) + 1))
    for r in rng.choice(n, size=k, replace=False) if k else []:
        climber.add(int(r))
        oracle.push(int(r))  # oracle allows infeasible pushes; fine for math
    return climber, oracle, unread


# Tag counts straddle the 64-bit word boundary (tags drive word width);
# reader counts straddle BATCH_MIN (the scalar-delegation cutoff).
SCENARIOS = [
    (6, 20, 30.0, 551),     # tiny: everything below BATCH_MIN
    (20, 64, 40.0, 552),    # exactly one word of tags
    (24, 65, 40.0, 553),    # word boundary +1
    (40, 200, 60.0, 554),   # multi-word, frontier well above BATCH_MIN
]


@pytest.mark.parametrize("n,m,side,seed", SCENARIOS)
class TestKernelEquivalence:
    def _kernels(self, n, m, side, seed):
        system = make_random_system(n, m, side, 9.0, 5.0, seed)
        return system, PureKernel(system), NumpyKernel(system)

    def test_solo_and_coverage_batches(self, n, m, side, seed):
        system, pure, fast = self._kernels(n, m, side, seed)
        rng = np.random.default_rng(seed)
        for zero_unread in (False, True):
            climber, _oracle, _unread = _random_state(
                system, rng, zero_unread=zero_unread
            )
            u = climber.unread_mask
            once, multi = climber.once, climber.multi
            for cands in ([], [0], list(range(n)), list(range(0, n, 3))):
                assert np.array_equal(
                    pure.solo_weights(u, cands), fast.solo_weights(u, cands)
                )
                assert np.array_equal(
                    pure.new_coverage_counts(once, multi, u, cands),
                    fast.new_coverage_counts(once, multi, u, cands),
                )

    def test_oracle_weights_with(self, n, m, side, seed):
        system, pure, fast = self._kernels(n, m, side, seed)
        rng = np.random.default_rng(seed + 1)
        for zero_unread in (False, True):
            _climber, oracle, _unread = _random_state(
                system, rng, zero_unread=zero_unread
            )
            once, multi, u = oracle._once, oracle._multi, oracle.unread_mask
            for cands in ([], list(range(n)), list(range(n - 1, -1, -2))):
                got_pure = pure.oracle_weights_with(once, multi, u, cands)
                got_fast = fast.oracle_weights_with(once, multi, u, cands)
                assert np.array_equal(got_pure, got_fast)
                expect = [oracle.weight_with(c) for c in cands]
                assert got_pure.tolist() == expect

    def test_climb_weights_with(self, n, m, side, seed):
        system, pure, fast = self._kernels(n, m, side, seed)
        rng = np.random.default_rng(seed + 2)
        for trial in range(4):
            climber, _oracle, _unread = _random_state(
                system, rng, zero_unread=(trial == 3)
            )
            for cands in ([], list(range(n)), list(range(min(n, BATCH_MIN + 4)))):
                got_pure = pure.climb_weights_with(climber, cands)
                got_fast = fast.climb_weights_with(climber, cands)
                assert np.array_equal(got_pure, got_fast)
                expect = [climber.weight_with(c) for c in cands]
                assert got_pure.tolist() == expect

    def test_covered_counts_and_filter(self, n, m, side, seed):
        system, pure, fast = self._kernels(n, m, side, seed)
        rng = np.random.default_rng(seed + 3)
        unread = rng.random(m) < 0.5 if m else None
        assert np.array_equal(pure.covered_counts(unread), fast.covered_counts(unread))
        assert np.array_equal(pure.covered_counts(None), fast.covered_counts(None))
        for blocked in ([], [0], list(rng.choice(n, size=min(n, 4), replace=False))):
            for cands in ([], list(range(n)), list(range(n - 1, -1, -1))):
                assert pure.filter_compatible(cands, blocked) == (
                    fast.filter_compatible(cands, blocked)
                )


def _climbed(system, unread, modes, kernel):
    """A climber advanced one real GHC step per entry of *modes* (True:
    best weight gain, False: best collision-naive coverage gain), with no
    stopping rule, so the state may be infeasible with silenced actives."""
    climber = GeneralizedWeightClimber(system, unread)
    climber.fresh  # materialise, so the adds below maintain it
    frontier = list(range(system.num_readers))
    for by_weight in modes:
        if not frontier:
            break
        if by_weight:
            gains = climber.weights_with_many(frontier, kernel)
        else:
            gains = climber.new_coverage_many(frontier, kernel)
        climber.add(frontier.pop(int(np.argmax(gains))))
    return climber


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(BATCH_MIN + 4, 72),
    m=st.integers(1, 300),
    side=st.floats(30.0, 70.0),
    modes=st.lists(st.booleans(), max_size=14),
    zero_unread=st.booleans(),
    picks=st.lists(st.integers(0, 10**6), min_size=BATCH_MIN, max_size=96),
)
@example(seed=1, n=BATCH_MIN + 4, m=64, side=40.0, modes=[], zero_unread=False,
         picks=list(range(BATCH_MIN)))
@example(seed=2, n=BATCH_MIN + 4, m=65, side=40.0, modes=[False] * 8,
         zero_unread=True, picks=list(range(BATCH_MIN)))
def test_climb_weights_with_on_climbed_states(
    seed, n, m, side, modes, zero_unread, picks
):
    """numpy == pure == the climber's own weight_with on frontiers of at
    least BATCH_MIN candidates, with duplicates, already-active readers
    and readers silencing two or more operational actives, from states a
    GHC climb actually reaches (including empty-active and zero-unread
    ones)."""
    system = make_random_system(n, m, side, 9.0, 5.0, seed)
    pure, fast = PureKernel(system), NumpyKernel(system)
    rng = np.random.default_rng(seed)
    unread = np.zeros(m, dtype=bool) if zero_unread else rng.random(m) < 0.7
    climber = _climbed(system, unread, modes, pure)
    active = climber.active
    sil = np.asarray(system.in_interference_range, dtype=bool)  # [i, j]: j silences i
    operational = [i for i in active if not sil[i, active].any()]
    multi_silencers = np.flatnonzero(sil[operational].sum(axis=0) >= 2).tolist()
    cands = [p % n for p in picks] + active + multi_silencers + [picks[0] % n]
    got_fast = fast.climb_weights_with(climber, cands)
    got_pure = pure.climb_weights_with(climber, cands)
    assert got_fast.dtype == np.int64
    assert got_fast.tolist() == got_pure.tolist()
    assert got_pure.tolist() == [climber.weight_with(r) for r in cands]


def test_batch_min_cutoff_is_wallclock_only():
    """Frontiers straddling BATCH_MIN return identical integers on both
    sides of the scalar-delegation cutoff, for every batch weight method,
    from a non-empty climber/oracle state."""
    system = make_random_system(BATCH_MIN + 8, 100, 50.0, 9.0, 5.0, 77)
    pure, fast = PureKernel(system), NumpyKernel(system)
    unread = np.random.default_rng(77).random(system.num_tags) < 0.7
    climber = _climbed(system, unread, [True, False, True, False, False], pure)
    oracle = BitsetWeightOracle(system, unread)
    for r in climber.active:
        oracle.push(r)
    assert climber.active
    full, u = system.packed_coverage.full_mask, climber.unread_mask
    once, multi = climber.once, climber.multi
    for size in (BATCH_MIN - 1, BATCH_MIN, BATCH_MIN + 1):
        cands = list(range(size))
        batches = {
            "solo_weights": [(full, cands), (u, cands)],
            "oracle_weights_with": [
                (oracle._once, oracle._multi, oracle.unread_mask, cands)
            ],
            "climb_weights_with": [(climber, cands)],
            "new_coverage_counts": [(once, multi, u, cands)],
        }
        for name, calls in batches.items():
            for args in calls:
                assert np.array_equal(
                    getattr(pure, name)(*args), getattr(fast, name)(*args)
                ), (name, size)


# ---------------------------------------------------------------------------
# selection layer
# ---------------------------------------------------------------------------
class TestSelection:
    def test_registry_lists_both_backends(self):
        assert available_backends() == ["numpy", "pure"]

    def test_auto_resolves_to_numpy_when_available(self):
        assert resolve_backend(None) == "numpy"
        assert resolve_backend("auto") == "numpy"

    def test_explicit_argument_beats_everything(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        set_default_backend("numpy")
        assert resolve_backend("pure") == "pure"

    def test_process_default_beats_environment(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        set_default_backend("pure")
        assert resolve_backend(None) == "pure"

    def test_environment_beats_auto(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "pure")
        assert resolve_backend(None) == "pure"

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="numpy"):
            resolve_backend("cuda")
        with pytest.raises(ValueError):
            set_default_backend("cuda")

    def test_use_backend_scopes_and_restores(self):
        set_default_backend("numpy")
        with use_backend("pure"):
            assert get_default_backend() == "pure"
            assert resolve_backend(None) == "pure"
        assert get_default_backend() == "numpy"

    def test_kernel_for_memoises_per_backend(self, small_system):
        k1 = kernel_for(small_system, "pure")
        k2 = kernel_for(small_system, "pure")
        k3 = kernel_for(small_system, "numpy")
        assert k1 is k2
        assert k1 is not k3
        assert k1.name == "pure" and k3.name == "numpy"

    def test_kernel_methods_match_interface(self):
        abstract = {
            name
            for name in KERNEL_METHODS
            if callable(getattr(WeightKernel, name, None))
        }
        assert abstract == set(KERNEL_METHODS)
        assert set(WeightKernel.__abstractmethods__) == set(KERNEL_METHODS)


# ---------------------------------------------------------------------------
# solver-path equivalence: same schedules, same work counters
# ---------------------------------------------------------------------------
def _counters(collector):
    return {
        k: v
        for k, v in collector.summary().items()
        if "wall_clock" not in k
        and not k.endswith("_seconds_by_name")
        and k != "histograms"  # wall-clock distributions, machine-local
    }


def _oneshot(solver_name, system, seed, backend, **kw):
    solver = get_solver(solver_name, **kw)
    collector = RunCollector()
    with use_backend(backend), recording(collector):
        result = solver(system, None, seed)
    return result, _counters(collector)


ONESHOT_PATHS = [
    ("exact", {}),
    ("ptas", {"k": 2}),
    ("centralized", {}),
    ("localsearch", {"iterations": 300, "restarts": 2}),
    ("ghc", {}),
    ("ghc", {"gain_mode": "coverage"}),
]


class TestSolverEquivalence:
    @pytest.mark.parametrize("solver_name,kw", ONESHOT_PATHS,
                             ids=lambda v: v if isinstance(v, str) else str(v))
    def test_oneshot_paths_bit_identical(self, solver_name, kw):
        system = make_random_system(18, 160, 45.0, 9.0, 5.0, 91)
        a, ca = _oneshot(solver_name, system, 5, "pure", **kw)
        b, cb = _oneshot(solver_name, system, 5, "numpy", **kw)
        assert a.active.tolist() == b.active.tolist()
        assert a.weight == b.weight
        assert a.feasible == b.feasible
        assert ca == cb

    def test_mcs_schedule_bit_identical(self):
        system = make_random_system(14, 120, 40.0, 9.0, 5.0, 92)
        runs = {}
        for backend in ("pure", "numpy"):
            solver = get_solver("ptas", k=2)
            collector = RunCollector()
            with use_backend(backend), recording(collector):
                schedule = greedy_covering_schedule(system, solver, seed=8)
            runs[backend] = (
                [s.active.tolist() for s in schedule.slots],
                schedule.reads_per_slot(),
                schedule.complete,
                _counters(collector),
            )
        assert runs["pure"] == runs["numpy"]

    def test_mcs_fault_world_bit_identical(self):
        system = make_random_system(12, 90, 35.0, 9.0, 5.0, 93)
        plan = FaultPlan(
            reader_faults=(PermanentCrash(reader=1, at_slot=0),),
            miss_rate=0.2,
            seed=4,
        )
        runs = {}
        for backend in ("pure", "numpy"):
            solver = get_solver("ptas", k=2)
            collector = RunCollector()
            with use_backend(backend), recording(collector):
                schedule = greedy_covering_schedule(
                    system, solver, seed=9, faults=plan, max_slots=64
                )
            runs[backend] = (
                [s.active.tolist() for s in schedule.slots],
                schedule.reads_per_slot(),
                _counters(collector),
            )
        assert runs["pure"] == runs["numpy"]

    def test_backend_kwarg_reaches_solver_directly(self):
        from repro.core.exact import exact_mwfs

        system = make_random_system(10, 80, 35.0, 9.0, 5.0, 94)
        a = exact_mwfs(system, backend="pure")
        b = exact_mwfs(system, backend="numpy")
        assert a.active.tolist() == b.active.tolist()
        assert a.weight == b.weight
