"""Contract tests for the solver kernel (``docs/backends.md``).

:class:`NumpyKernel` is the only kernel; its contract is bit-identity with
the scalar references.  Three layers of that contract are pinned here:

* **kernel equivalence** — every ``KERNEL_METHODS`` row returns the same
  integers as its scalar reference on random mask states: the weight
  batches against :meth:`BitsetWeightOracle.solo_weight`/``weight_with``
  and :meth:`GeneralizedWeightClimber.weight_with`/``new_coverage``, the
  conflict filter against the dense ``system.conflict`` matrix.  Frontiers
  cover the edges the batching must not mishandle: empty,
  ``BATCH_MIN − 1``, ``BATCH_MIN``, ``BATCH_MIN + 1`` and wide (with
  duplicates when the system has fewer readers), all-zero unread masks and
  64/65-tag word boundaries;
* **hooks** — one public call counts exactly once in a wrapper around
  each public method, on both sides of ``BATCH_MIN`` (the scalar paths
  never call another public method);
* **solver equivalence** — every solver path that consumes the kernel
  (exact, ptas, centralized, localsearch, ghc in both gain modes, and the
  MCS driver in plain and fault-injected runs) produces the same schedules
  and work counters whether every frontier is scored batched or on the
  scalar big-int paths.
"""

import gc
import weakref
from collections import Counter

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
from repro.perf import cache
from repro.perf.backends import (
    KERNEL_METHODS,
    NumpyKernel,
    kernel_for,
    resolve_backend,
    use_backend,
)
from repro.perf.backends import numpy_batched
from repro.perf.backends.numpy_batched import BATCH_MIN
from repro.perf.incremental import GeneralizedWeightClimber
from tests.conftest import make_random_system


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


def _frontiers(n):
    """Empty and singleton frontiers, frontiers of BATCH_MIN − 1, BATCH_MIN
    and BATCH_MIN + 1 candidates and a wide one (strided over the readers,
    so with duplicates when there are fewer readers than candidates), and
    every reader forwards and backwards."""
    sizes = (1, BATCH_MIN - 1, BATCH_MIN, BATCH_MIN + 1, max(n, 3 * BATCH_MIN))
    return [[]] + [[(7 * i + 3) % n for i in range(size)] for size in sizes] + [
        list(range(n)),
        list(range(n - 1, -1, -1)),
    ]


# Tag counts straddle the 64-bit word boundary (tags drive word width);
# reader counts straddle BATCH_MIN (the scalar-delegation cutoff).
SCENARIOS = [
    (6, 20, 30.0, 551),     # tiny: distinct readers all below BATCH_MIN
    (20, 64, 40.0, 552),    # exactly one word of tags
    (24, 65, 40.0, 553),    # word boundary +1
    (40, 200, 60.0, 554),   # multi-word, frontier well above BATCH_MIN
]


@pytest.mark.parametrize("n,m,side,seed", SCENARIOS)
class TestKernelEquivalence:
    def _kernel(self, n, m, side, seed):
        system = make_random_system(n, m, side, 9.0, 5.0, seed)
        return system, NumpyKernel(system)

    def test_solo_and_coverage_batches(self, n, m, side, seed):
        system, kernel = self._kernel(n, m, side, seed)
        rng = np.random.default_rng(seed)
        for zero_unread in (False, True):
            climber, oracle, _unread = _random_state(
                system, rng, zero_unread=zero_unread
            )
            u = climber.unread_mask
            once, multi = climber.once, climber.multi
            for cands in _frontiers(n):
                solo = kernel.solo_weights(u, cands)
                assert solo.dtype == np.int64
                assert solo.tolist() == [oracle.solo_weight(c) for c in cands]
                fresh = kernel.new_coverage_counts(once, multi, u, cands)
                assert fresh.dtype == np.int64
                assert fresh.tolist() == [climber.new_coverage(c) for c in cands]

    def test_oracle_weights_with(self, n, m, side, seed):
        system, kernel = self._kernel(n, m, side, seed)
        rng = np.random.default_rng(seed + 1)
        for zero_unread in (False, True):
            _climber, oracle, _unread = _random_state(
                system, rng, zero_unread=zero_unread
            )
            once, multi, u = oracle._once, oracle._multi, oracle.unread_mask
            for cands in _frontiers(n):
                got = kernel.oracle_weights_with(once, multi, u, cands)
                assert got.dtype == np.int64
                assert got.tolist() == [oracle.weight_with(c) for c in cands]

    def test_climb_weights_with(self, n, m, side, seed):
        system, kernel = self._kernel(n, m, side, seed)
        rng = np.random.default_rng(seed + 2)
        for trial in range(4):
            climber, _oracle, _unread = _random_state(
                system, rng, zero_unread=(trial == 3)
            )
            for cands in _frontiers(n):
                got = kernel.climb_weights_with(climber, cands)
                assert got.dtype == np.int64
                assert got.tolist() == [climber.weight_with(c) for c in cands]

    def test_filter_compatible(self, n, m, side, seed):
        """Against the dense ``(readers, readers)`` conflict matrix, not the
        packed rows the kernel reads."""
        system, kernel = self._kernel(n, m, side, seed)
        rng = np.random.default_rng(seed + 3)
        conflict = np.asarray(system.conflict, dtype=bool)
        climber, _oracle, _unread = _random_state(system, rng)
        blocked_sets = (
            [], [0], list(rng.choice(n, size=min(n, 4), replace=False)),
            climber.active,
        )
        for blocked in blocked_sets:
            for cands in _frontiers(n):
                expect = [c for c in cands if not conflict[c, blocked].any()]
                assert kernel.filter_compatible(cands, blocked) == expect


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
    """The kernel == the climber's own weight_with on frontiers of at
    least BATCH_MIN candidates, with duplicates, already-active readers
    and readers silencing two or more operational actives, from states a
    GHC climb actually reaches (including empty-active and zero-unread
    ones).  The climb itself runs on the scalar reference (no kernel)."""
    system = make_random_system(n, m, side, 9.0, 5.0, seed)
    kernel = NumpyKernel(system)
    rng = np.random.default_rng(seed)
    unread = np.zeros(m, dtype=bool) if zero_unread else rng.random(m) < 0.7
    climber = _climbed(system, unread, modes, None)
    active = climber.active
    sil = np.asarray(system.in_interference_range, dtype=bool)  # [i, j]: j silences i
    operational = [i for i in active if not sil[i, active].any()]
    multi_silencers = np.flatnonzero(sil[operational].sum(axis=0) >= 2).tolist()
    cands = [p % n for p in picks] + active + multi_silencers + [picks[0] % n]
    got = kernel.climb_weights_with(climber, cands)
    assert got.dtype == np.int64
    assert got.tolist() == [climber.weight_with(r) for r in cands]
    # and the scalar path (one candidate at a time) agrees per element
    assert [kernel.climb_weights_with(climber, [r])[0] for r in cands] == got.tolist()


def _one_call_per_method(system, size):
    """``(kernel, {method: args}, (climber, oracle))``: one public call per
    ``KERNEL_METHODS`` row, with a frontier of *size* candidates, from the
    non-empty climber/oracle state also returned."""
    kernel = NumpyKernel(system)
    unread = np.random.default_rng(77).random(system.num_tags) < 0.7
    climber = _climbed(system, unread, [True, False, True, False, False], None)
    oracle = BitsetWeightOracle(system, unread)
    for r in climber.active:
        oracle.push(r)
    assert climber.active
    u, cands = climber.unread_mask, list(range(size))
    return kernel, {
        "solo_weights": (u, cands),
        "oracle_weights_with": (oracle._once, oracle._multi, oracle.unread_mask, cands),
        "climb_weights_with": (climber, cands),
        "new_coverage_counts": (climber.once, climber.multi, u, cands),
        "filter_compatible": (cands, climber.active),
    }, (climber, oracle)


def test_batch_min_cutoff_is_wallclock_only():
    """Frontiers straddling BATCH_MIN return the scalar references'
    integers on both sides of the scalar-delegation cutoff, for every batch
    weight method, from a non-empty climber/oracle state."""
    system = make_random_system(BATCH_MIN + 8, 100, 50.0, 9.0, 5.0, 77)
    for size in (BATCH_MIN - 1, BATCH_MIN, BATCH_MIN + 1):
        kernel, calls, (climber, oracle) = _one_call_per_method(system, size)
        cands = list(range(size))
        expect = {
            "solo_weights": [oracle.solo_weight(c) for c in cands],
            "oracle_weights_with": [oracle.weight_with(c) for c in cands],
            "climb_weights_with": [climber.weight_with(c) for c in cands],
            "new_coverage_counts": [climber.new_coverage(c) for c in cands],
        }
        for name, want in expect.items():
            got = getattr(kernel, name)(*calls[name])
            assert got.tolist() == want, (name, size)


@pytest.mark.parametrize("size", [BATCH_MIN - 1, BATCH_MIN + 1],
                         ids=["below_batch_min", "above_batch_min"])
def test_public_call_counts_once_in_method_hooks(monkeypatch, size):
    """Wrap every public kernel method by name, as a timing harness does;
    one public call must count exactly once — the small-frontier scalar
    paths are private helpers, never another public method — and every
    listed method must be defined on the kernel class itself."""
    counts = Counter()

    def counting(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return call

    for name in KERNEL_METHODS:
        assert name in vars(NumpyKernel), name
        monkeypatch.setattr(NumpyKernel, name, counting(name, vars(NumpyKernel)[name]))
    system = make_random_system(BATCH_MIN + 8, 100, 50.0, 9.0, 5.0, 78)
    kernel, calls, _state = _one_call_per_method(system, size)
    assert set(calls) == set(KERNEL_METHODS)
    for name, args in calls.items():
        counts.clear()
        getattr(kernel, name)(*args)
        assert counts == {name: 1}, (name, size)


# ---------------------------------------------------------------------------
# what remains of backend selection: name validation
# ---------------------------------------------------------------------------
class TestSelection:
    def test_unknown_name_lists_available(self):
        assert resolve_backend() == resolve_backend("numpy") == "numpy"
        for name in ("cuda", "pure", "auto"):
            with pytest.raises(ValueError, match="numpy"):
                resolve_backend(name)
            with pytest.raises(ValueError, match="numpy"):
                with use_backend(name):
                    pass

    def test_kernel_for_memoises_per_system(self, small_system, line_system):
        k1 = kernel_for(small_system)
        assert kernel_for(small_system) is k1
        assert isinstance(k1, NumpyKernel) and k1.system is small_system
        assert kernel_for(line_system) is not k1

    def test_kernel_memo_dies_with_its_system(self):
        """The memo is keyed weakly, and the kernel it holds must not keep
        its key alive: once the system is dropped, it and its entry (the
        kernel, and the PTAS square indices a solve adds) are gone."""
        system = make_random_system(12, 150, 40, 8, 5, seed=3)
        kernel_for(system)
        get_solver("ptas", k=2)(system, system.covered_by_any(), 0)
        ref = weakref.ref(system)
        gc.collect()  # earlier garbage must not die in the count below
        entries = len(cache._CACHES)
        del system
        gc.collect()
        assert ref() is None
        assert len(cache._CACHES) == entries - 1


# ---------------------------------------------------------------------------
# solver-path equivalence: batched vs scalar frontier scoring
# ---------------------------------------------------------------------------
def _counters(collector):
    return {
        k: v
        for k, v in collector.summary().items()
        if "wall_clock" not in k
        and not k.endswith("_seconds_by_name")
        and k != "histograms"  # wall-clock distributions, machine-local
    }


@pytest.fixture
def frontier_paths(monkeypatch):
    """``run(path, fn)``: *fn()* with every kernel frontier scored on the
    batched word-matrix path (``"batched"``) or on the scalar big-int
    helpers (``"scalar"``), by moving the kernel's ``BATCH_MIN`` cutoff.
    GHC's own pruning batch size is left alone."""

    def run(path, fn):
        cutoff = {"batched": 0, "scalar": 10**9}[path]
        with monkeypatch.context() as m:
            m.setattr(numpy_batched, "BATCH_MIN", cutoff)
            collector = RunCollector()
            with recording(collector):
                result = fn()
        return result, _counters(collector)

    return run


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
    def test_oneshot_paths_bit_identical(self, frontier_paths, solver_name, kw):
        system = make_random_system(18, 160, 45.0, 9.0, 5.0, 91)
        runs = {
            path: frontier_paths(
                path, lambda: get_solver(solver_name, **kw)(system, None, 5)
            )
            for path in ("batched", "scalar")
        }
        (a, ca), (b, cb) = runs["batched"], runs["scalar"]
        assert a.active.tolist() == b.active.tolist()
        assert a.weight == b.weight
        assert a.feasible == b.feasible
        assert ca == cb

    def test_mcs_schedule_bit_identical(self, frontier_paths):
        system = make_random_system(14, 120, 40.0, 9.0, 5.0, 92)
        runs = {}
        for path in ("batched", "scalar"):
            schedule, counters = frontier_paths(
                path,
                lambda: greedy_covering_schedule(
                    system, get_solver("ptas", k=2), seed=8
                ),
            )
            runs[path] = (
                [s.active.tolist() for s in schedule.slots],
                schedule.reads_per_slot(),
                schedule.complete,
                counters,
            )
        assert runs["batched"] == runs["scalar"]

    def test_mcs_fault_world_bit_identical(self, frontier_paths):
        system = make_random_system(12, 90, 35.0, 9.0, 5.0, 93)
        plan = FaultPlan(
            reader_faults=(PermanentCrash(reader=1, at_slot=0),),
            miss_rate=0.2,
            seed=4,
        )
        runs = {}
        for path in ("batched", "scalar"):
            schedule, counters = frontier_paths(
                path,
                lambda: greedy_covering_schedule(
                    system, get_solver("ptas", k=2), seed=9, faults=plan,
                    max_slots=64,
                ),
            )
            runs[path] = (
                [s.active.tolist() for s in schedule.slots],
                schedule.reads_per_slot(),
                counters,
            )
        assert runs["batched"] == runs["scalar"]

    def test_backend_kwarg_reaches_solver_directly(self):
        """``backend=`` survives on GHC and the PTAS, validated there."""
        from repro.baselines.hillclimb import greedy_hill_climbing
        from repro.core.ptas import ptas_mwfs

        system = make_random_system(10, 80, 35.0, 9.0, 5.0, 94)
        for solve in (ptas_mwfs, greedy_hill_climbing):
            a = solve(system, backend="numpy")
            b = solve(system)
            assert a.active.tolist() == b.active.tolist()
            assert a.weight == b.weight
            with pytest.raises(ValueError, match="numpy"):
                solve(system, backend="pure")
