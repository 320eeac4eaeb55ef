"""Golden regression tests.

Pinned expected outputs for fixed seeds — not correctness oracles, but
tripwires: if any of these change, a behavioural change slipped into the
pipeline (sampling order, tie-breaking, algorithm internals) and EXPERIMENTS
numbers are stale.  Update deliberately, never casually.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.baselines import (
    colorwave_covering_schedule,
    colorwave_oneshot,
    csma_covering_schedule,
    greedy_hill_climbing,
)
from repro.core import (
    centralized_location_free,
    distributed_mwfs,
    exact_mwfs,
    get_solver,
    greedy_covering_schedule,
    multichannel_covering_schedule,
    ptas_mwfs,
)
from repro.deployment import Scenario
from repro.faults import FaultPlan, FaultPolicy, FlakyActivation, PermanentCrash
from repro.obs import (
    CandidateEvaluation,
    RunCollector,
    SpanStart,
    TeeRecorder,
    TraceRecorder,
    recording,
)
from repro.shard import ScaleDeployment, ShardSpec, run_scale_schedule
from tests.conftest import make_random_system, shrunken_chaos_shard

GOLDEN_SCENARIO = Scenario(
    num_readers=20,
    num_tags=300,
    side=60.0,
    lambda_interference=10,
    lambda_interrogation=5,
    seed=12345,
)


@pytest.fixture(scope="module")
def system():
    return GOLDEN_SCENARIO.build()


class TestDeploymentGolden:
    def test_first_reader_position(self, system):
        np.testing.assert_allclose(
            system.reader_positions[0], [13.64016135, 19.00550038], rtol=1e-6
        )

    def test_radii_sums(self, system):
        assert system.interference_radii.sum() == pytest.approx(183.0)
        assert system.interrogation_radii.sum() == pytest.approx(101.0)

    def test_structure_counts(self, system):
        assert int(np.triu(system.conflict, 1).sum()) == 14
        assert int(system.covered_by_any().sum()) == 143
        assert int(system.coverage.sum()) == 176


class TestSolverGolden:
    def test_exact(self, system):
        result = exact_mwfs(system)
        assert result.weight == 103
        assert result.active.tolist() == [0, 1, 4, 6, 7, 8, 11, 12, 13, 14, 19]

    def test_ptas(self, system):
        tracer = TraceRecorder()
        with recording(tracer):
            result = ptas_mwfs(system, k=3)
        assert result.weight == 103
        assert result.active.tolist() == [0, 1, 4, 6, 7, 8, 11, 12, 13, 14, 19]
        assert result.meta["shift"] == (0, 0)
        assert [
            e.count
            for e in tracer.events
            if isinstance(e, CandidateEvaluation) and e.context == "ptas.dp_cells"
        ] == [1, 2, 1, 2, 4, 2, 1, 2, 1]

    def test_centralized(self, system):
        result = centralized_location_free(system, rho=1.1)
        assert result.weight == 103

    def test_distributed(self, system):
        result = distributed_mwfs(system, rho=1.3, c=3)
        assert result.weight == 103
        assert result.meta["rounds"] == 20
        assert result.meta["messages"] == 218

    def test_ghc(self, system):
        assert greedy_hill_climbing(system).weight == 100

    def test_ghc_naive(self, system):
        assert greedy_hill_climbing(system, gain_mode="coverage").weight == 44

    def test_colorwave(self, system):
        result = colorwave_oneshot(system, seed=0)
        assert result.weight == 68


class TestScheduleGolden:
    def test_exact_greedy_schedule(self, system):
        schedule = greedy_covering_schedule(system, get_solver("exact"), seed=0)
        assert schedule.size == 3
        assert schedule.reads_per_slot() == [103, 30, 10]
        assert schedule.complete


# ---------------------------------------------------------------------------
# Driver pins: exact schedules of the fault-tolerant, sharded and array-first
# configurations, which the property tests only check for coverage.


#: Array-first deployment shared by the sparse driver pins.
SCALE = ScaleDeployment(num_readers=120, num_tags=1500, side=160.0, seed=7)

#: (per-slot (active readers, tags read), outcome, schedule digest,
#: fault-trace digest) of the dense drivers.
DENSE_SHARD_FAULTS = (
    [(28, 37), (15, 14), (6, 5), (2, 2), (0, 0), (0, 0), (0, 0), (0, 0),
     (0, 0)],
    "stalled", "20e80136c3cc7294", "fd8ea467209a813f",
)
DENSE_SHARD_FAULTS_COUNTERS = {
    "readers_failed": 2, "reads_missed": 24, "rrc_blocked": 0,
    "rtc_silenced": 0, "schedule_degradations": 0, "sets_evaluated": 0,
    "shard_boundary_repairs": 0, "shard_cells": 35, "slots": 9,
    "tags_read": 58,
}
DENSE_SHARD_FAULTS_PTAS = (
    [(43, 425), (42, 195), (31, 105), (28, 75), (24, 28), (14, 18),
     (10, 11), (6, 5), (3, 2), (3, 3)] + [(0, 0)] * 8,
    "stalled", "13521b72e504a1fc", "dbc58398281c2ae2",
)
DENSE_SHARD_FAULTS_PTAS_COUNTERS = {
    "readers_failed": 21, "reads_missed": 377, "rrc_blocked": 4,
    "rtc_silenced": 0, "schedule_degradations": 0, "sets_evaluated": 7283,
    "shard_boundary_repairs": 3, "shard_cells": 39, "slots": 18,
    "tags_read": 867,
}
LADDER = (
    [(6, 34), (5, 12), (1, 3), (1, 2), (1, 1), (0, 0), (1, 1), (1, 1),
     (1, 1), (1, 1)],
    "complete", "5be6adfd2d611620", "1ca81eed703e0496",
)
LADDER_RUNGS = [("centralized", None), ("ghc", "fallback")] + [
    ("singleton", None)
] * 8
LADDER_COUNTERS = {
    "readers_failed": 1, "reads_missed": 13, "rrc_blocked": 1,
    "rtc_silenced": 0, "schedule_degradations": 2, "sets_evaluated": 27,
    "slots": 10, "tags_read": 56,
}
#: Dense GHC climb pins on a deployment whose frontiers reach BATCH_MIN, so
#: the kernel scores them on its batched paths:
#: pin name -> _dense_pin(result).
GHC_CLIMB = Scenario(num_readers=150, num_tags=3000, side=175.0, seed=13)
GHC_CLIMB_PINS = {
    "ghc": (
        [(76, 809), (39, 161), (9, 17), (1, 1)],
        "complete", "97eb7816ef478b60", "8cebd312dd12a29d",
    ),
    "ghc_naive": (
        [(25, 474), (37, 332), (33, 133), (16, 32), (14, 16), (1, 1)],
        "complete", "2e0fee0428606201", "8cebd312dd12a29d",
    ),
    # The feasible-only climb (the variant perfbench's certificate
    # self-test schedules); on this deployment the weight-gain climb
    # happens to pick feasible sets anyway, so its pin equals "ghc".
    "ghc_feasible": (
        [(76, 809), (39, 161), (9, 17), (1, 1)],
        "complete", "97eb7816ef478b60", "8cebd312dd12a29d",
    ),
    "ghc_naive_feasible": (
        [(73, 806), (42, 164), (9, 17), (1, 1)],
        "complete", "2972a3e4a749593b", "8cebd312dd12a29d",
    ),
}
#: Registry name and keyword arguments behind each GHC_CLIMB_PINS entry.
GHC_CLIMB_SOLVERS = {
    "ghc": ("ghc", {}),
    "ghc_naive": ("ghc_naive", {}),
    "ghc_feasible": ("ghc", {"require_feasible": True}),
    "ghc_naive_feasible": ("ghc_naive", {"require_feasible": True}),
}
SPARSE_SLOTS = [(52, 318), (29, 88), (9, 15), (2, 3)]
SPARSE_COUNTERS = {
    "rrc_blocked": 0, "rtc_silenced": 0, "sets_evaluated": 0,
    "shard_boundary_repairs": 11, "shard_cells": 41, "slots": 4,
    "tags_read": 424,
}
SPARSE_FAULT_SLOTS = [
    (49, 265), (32, 108), (21, 33), (12, 15), (3, 1), (2, 1), (1, 1),
]
SPARSE_FAULT_COUNTERS = {
    "readers_failed": 8, "reads_missed": 41, "rrc_blocked": 0,
    "rtc_silenced": 0, "schedule_degradations": 0, "sets_evaluated": 0,
    "shard_boundary_repairs": 12, "shard_cells": 62, "slots": 7,
    "tags_read": 424,
}


def _digest(*parts):
    """Short, stable hash of arrays and reprs."""
    h = hashlib.sha1()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=np.int64).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


#: Work counters of a run that must not drift (timings excluded).
PINNED_COUNTERS = (
    "slots",
    "tags_read",
    "sets_evaluated",
    "rrc_blocked",
    "rtc_silenced",
    "readers_failed",
    "reads_missed",
    "schedule_degradations",
    "shard_cells",
    "shard_boundary_repairs",
)


def _collected(run):
    """Run under a collector; returns (result, pinned counters, number of
    partition refreshes)."""
    collector, tracer = RunCollector(), TraceRecorder()
    with recording(TeeRecorder(collector, tracer)):
        result = run()
    summary = collector.summary()
    refreshes = sum(
        isinstance(e, SpanStart) and e.name == "shard.refresh"
        for e in tracer.events
    )
    counters = {k: summary[k] for k in PINNED_COUNTERS if k in summary}
    return result, counters, refreshes


def _dense_pin(result):
    return (
        [(len(s.active), s.num_read) for s in result.slots],
        result.outcome.value,
        _digest(*[a for s in result.slots for a in (s.active, s.tags_read)]),
        _digest(result.fault_trace),
    )


class TestDriverGolden:
    def test_dense_shard_faults_with_refresh(self):
        system = Scenario(
            num_readers=60, num_tags=600, side=200.0, seed=5
        ).build()
        plan = FaultPlan(
            reader_faults=(PermanentCrash(reader=2, at_slot=0),)
            + tuple(FlakyActivation(r, 0.1) for r in range(0, 60, 7)),
            miss_rate=0.3,
            seed=11,
        )
        result, counters, refreshes = _collected(
            lambda: greedy_covering_schedule(
                system, get_solver("ghc"), seed=9, faults=plan,
                policy=FaultPolicy(max_stall_slots=5),
                shard=ShardSpec(cells=16),
            )
        )
        assert _dense_pin(result) == DENSE_SHARD_FAULTS
        assert counters == DENSE_SHARD_FAULTS_COUNTERS
        assert refreshes == 1

    def test_dense_shard_faults_ptas(self):
        """A shrunken ``chaos_shard``: sharded PTAS cells under a fault plan
        with a tree-walking link layer."""
        system, kwargs = shrunken_chaos_shard()
        result, counters, refreshes = _collected(
            lambda: greedy_covering_schedule(
                system, get_solver("ptas", k=3), shard=ShardSpec(cells=4),
                **kwargs,
            )
        )
        assert _dense_pin(result) == DENSE_SHARD_FAULTS_PTAS
        assert counters == DENSE_SHARD_FAULTS_PTAS_COUNTERS
        assert refreshes == 1

    def test_sparse_fault_free(self):
        result, counters, refreshes = _collected(
            lambda: run_scale_schedule(SCALE, ShardSpec(cells=16), seed=11)
        )
        assert [(s.active_readers, s.tags_read) for s in result.slots] == (
            SPARSE_SLOTS
        )
        assert result.outcome == "complete"
        assert counters == SPARSE_COUNTERS

    def test_sparse_flaky_with_refresh(self):
        plan = FaultPlan(
            reader_faults=tuple(FlakyActivation(r, 0.1) for r in range(120))
            + (PermanentCrash(3, 2), PermanentCrash(60, 2)),
            miss_rate=0.1,
            seed=3,
        )
        result, counters, refreshes = _collected(
            lambda: run_scale_schedule(
                SCALE, ShardSpec(cells=16), seed=11, faults=plan
            )
        )
        assert [(s.active_readers, s.tags_read) for s in result.slots] == (
            SPARSE_FAULT_SLOTS
        )
        assert result.outcome == "complete"
        assert counters == SPARSE_FAULT_COUNTERS
        assert refreshes == 1

    def test_dense_deadline_ladder_to_singleton(self):
        system = make_random_system(10, 120, 40, 8, 5, seed=3)
        plan = FaultPlan.uniform_flaky(10, 0.15, miss_rate=0.2, seed=4)
        policy = FaultPolicy(
            solver_deadline_s=0.0, deadline_retries=0, fallback_solver="ghc"
        )
        result, counters, refreshes = _collected(
            lambda: greedy_covering_schedule(
                system, get_solver("centralized"), seed=11, faults=plan,
                policy=policy,
            )
        )
        assert _dense_pin(result) == LADDER
        assert [
            (s.solver_meta.get("solver"), s.solver_meta.get("ladder"))
            for s in result.slots
        ] == LADDER_RUNGS
        assert counters == LADDER_COUNTERS


@pytest.fixture(scope="module")
def ghc_climb_system():
    return GHC_CLIMB.build()


@pytest.mark.parametrize("backend", ["numpy"])
@pytest.mark.parametrize("solver", list(GHC_CLIMB_PINS))
def test_ghc_climb_schedule(ghc_climb_system, solver, backend):
    """The dense GHC schedule is pinned through the solver's ``backend=``
    keyword, the way a caller naming the kernel runs it; the climb
    frontiers go through the batched weight kernels."""
    name, kwargs = GHC_CLIMB_SOLVERS[solver]
    result = greedy_covering_schedule(
        ghc_climb_system, get_solver(name, backend=backend, **kwargs), seed=3
    )
    assert _dense_pin(result) == GHC_CLIMB_PINS[solver]


# ---------------------------------------------------------------------------
# Baseline covering schedules: Colorwave, multi-channel and CSMA drivers,
# pinned slot by slot over a small seed sweep.

#: make_random_system arguments (readers, tags, side, λ_R, λ_r) by shape name.
BASELINE_SHAPES = {"small": (12, 150, 40, 10, 5), "medium": (20, 200, 50, 12, 6)}
#: (shape, seed) instances of the sweep.
BASELINE_INSTANCES = [("small", s) for s in range(6)] + [
    ("medium", s) for s in range(2)
]
#: Driver configuration name -> call on (system, seed).
BASELINE_DRIVERS = {
    "colorwave": lambda system, seed: colorwave_covering_schedule(
        system, seed=seed
    ),
    "colorwave-cap3": lambda system, seed: colorwave_covering_schedule(
        system, seed=seed, max_slots=3
    ),
    "multichannel-greedy-1": lambda system, seed: multichannel_covering_schedule(
        system, 1
    ),
    "multichannel-greedy-2": lambda system, seed: multichannel_covering_schedule(
        system, 2
    ),
    "multichannel-coloring-3": lambda system, seed: multichannel_covering_schedule(
        system, 3, scheduler="coloring"
    ),
    "csma": lambda system, seed: csma_covering_schedule(system, seed=seed),
}
#: (shape, seed, driver) -> (slots, outcome, _schedule_digest).
BASELINE_PINS = {
    ("small", 0, "colorwave"): (4, "complete", "2af3d490a1c774e0"),
    ("small", 0, "colorwave-cap3"): (3, "exhausted", "85ae824d3f885a37"),
    ("small", 0, "multichannel-greedy-1"): (3, "complete", "cc4efdf5c2237d72"),
    ("small", 0, "multichannel-greedy-2"): (2, "complete", "852cd544bd0823a4"),
    ("small", 0, "multichannel-coloring-3"): (2, "complete", "d5b3ce0e7cd75c5d"),
    ("small", 0, "csma"): (3, "complete", "a8035ffbeabe6895"),
    ("small", 1, "colorwave"): (4, "complete", "a7468fc5617504c2"),
    ("small", 1, "colorwave-cap3"): (3, "exhausted", "ae95a59ba913ee38"),
    ("small", 1, "multichannel-greedy-1"): (3, "complete", "11780efa8efcf624"),
    ("small", 1, "multichannel-greedy-2"): (2, "complete", "ac14e7d48bb4113b"),
    ("small", 1, "multichannel-coloring-3"): (4, "complete", "0213f144b901bb11"),
    ("small", 1, "csma"): (4, "complete", "2e0d70cfac6a1bfa"),
    ("small", 2, "colorwave"): (7, "complete", "9a458654c5d6545e"),
    ("small", 2, "colorwave-cap3"): (3, "exhausted", "411be43870bdeb4e"),
    ("small", 2, "multichannel-greedy-1"): (3, "complete", "65de8e0248084ccc"),
    ("small", 2, "multichannel-greedy-2"): (2, "complete", "c9c62940a5539f1d"),
    ("small", 2, "multichannel-coloring-3"): (3, "complete", "c51f5a9455634869"),
    ("small", 2, "csma"): (5, "complete", "00855183a42f239b"),
    ("small", 3, "colorwave"): (4, "complete", "2d3e48d591e4f23c"),
    ("small", 3, "colorwave-cap3"): (3, "exhausted", "d3c3a069083caf19"),
    ("small", 3, "multichannel-greedy-1"): (2, "complete", "cc2207f3fcdee00c"),
    ("small", 3, "multichannel-greedy-2"): (2, "complete", "1454961f9fbb92d3"),
    ("small", 3, "multichannel-coloring-3"): (2, "complete", "a4296587a4796abb"),
    ("small", 3, "csma"): (2, "complete", "d0e45fe83958c76d"),
    ("small", 4, "colorwave"): (6, "complete", "d0a945df7b5896e1"),
    ("small", 4, "colorwave-cap3"): (3, "exhausted", "500964ab918f6522"),
    ("small", 4, "multichannel-greedy-1"): (3, "complete", "3b77e666bb2d690e"),
    ("small", 4, "multichannel-greedy-2"): (2, "complete", "7d5f162a7a816c70"),
    ("small", 4, "multichannel-coloring-3"): (2, "complete", "0b46e9ee716c26f2"),
    ("small", 4, "csma"): (4, "complete", "c7b4b4797dcf1a3b"),
    ("small", 5, "colorwave"): (11, "complete", "ab6ac22057bedbcd"),
    ("small", 5, "colorwave-cap3"): (3, "exhausted", "09af32e5e782940b"),
    ("small", 5, "multichannel-greedy-1"): (3, "complete", "494efdc8675f0229"),
    ("small", 5, "multichannel-greedy-2"): (2, "complete", "cbfbd90a99f7ea7e"),
    ("small", 5, "multichannel-coloring-3"): (2, "complete", "e9eace1885dc3b36"),
    ("small", 5, "csma"): (3, "complete", "ae58a654724d9795"),
    ("medium", 0, "colorwave"): (8, "complete", "0eb680f05ef8a8b5"),
    ("medium", 0, "colorwave-cap3"): (3, "exhausted", "93d45464a5346041"),
    ("medium", 0, "multichannel-greedy-1"): (5, "complete", "0528d86eb852a6d0"),
    ("medium", 0, "multichannel-greedy-2"): (3, "complete", "7a3d5043182b0c75"),
    ("medium", 0, "multichannel-coloring-3"): (7, "complete", "f85cfdedb438f5e6"),
    ("medium", 0, "csma"): (8, "complete", "d2b152ca182ce7d8"),
    ("medium", 1, "colorwave"): (5, "complete", "3cf256fe2d164c76"),
    ("medium", 1, "colorwave-cap3"): (3, "exhausted", "89c26793c627ca83"),
    ("medium", 1, "multichannel-greedy-1"): (4, "complete", "c8cca3c403c81c40"),
    ("medium", 1, "multichannel-greedy-2"): (3, "complete", "b0ecc073f42e6dc9"),
    ("medium", 1, "multichannel-coloring-3"): (5, "complete", "b53e56ff4d76c702"),
    ("medium", 1, "csma"): (5, "complete", "d965642ebed1e3b7"),
}


def _schedule_digest(result):
    """Digest of a covering schedule, slot by slot: each slot's active set,
    tags read, weight and solver meta, then the outcome and the uncovered
    tags."""
    slot_parts = [
        _digest(
            s.active, s.tags_read, s.weight,
            json.dumps(s.solver_meta, sort_keys=True),
        )
        for s in result.slots
    ]
    return _digest(*slot_parts, result.outcome.value, result.uncovered_tags)


@pytest.mark.parametrize("driver", list(BASELINE_DRIVERS))
@pytest.mark.parametrize(
    "shape,seed", BASELINE_INSTANCES, ids=[f"{a}-{b}" for a, b in BASELINE_INSTANCES]
)
def test_baseline_schedule(shape, seed, driver):
    system = make_random_system(*BASELINE_SHAPES[shape], seed=seed)
    result = BASELINE_DRIVERS[driver](system, seed)
    assert (
        result.size, result.outcome.value, _schedule_digest(result)
    ) == BASELINE_PINS[(shape, seed, driver)]


# ---------------------------------------------------------------------------
# Seed-drawing solvers under sharding: every cell solve draws from its own
# child seed, so these pins fix each cell's random stream slot by slot.

#: Solver name -> (per-slot digests of (active, tags read), outcome) of the
#: dense sharded driver on SHARDED_SEEDED, seed 11, 16 cells.
SHARDED_SEEDED = Scenario(num_readers=60, num_tags=600, side=200.0, seed=5)
SHARDED_SEEDED_PINS = {
    "localsearch": (["45d44cb7215ecf13", "c2b17cc14aeaef1d"], "complete"),
    "random": (
        ["9a24031b944ed1c1", "6079ea41acd07398", "c939005d6535a9a2",
         "fe2e84d71c84d27a", "aa02c5646023b3e2"],
        "complete",
    ),
    "csma": (["db0c93406bf37d8b", "5b0c558b7cdc1413"], "complete"),
    "colorwave": (
        ["d12c28cd433136c5", "6f054cfb5c97c42f", "4daed075b183d38a"],
        "complete",
    ),
}
#: (per-slot digests of the ScaleSlotRecord fields, outcome) of the sparse
#: driver's local search on SCALE, seed 11, 16 cells.
SPARSE_LOCALSEARCH_PIN = (
    ["93c2029a34db3936", "87995db7fc844f67", "2d6824b16986a770",
     "2667f2a59b9b8b8d"],
    "complete",
)


@pytest.fixture(scope="module")
def sharded_seeded_system():
    return SHARDED_SEEDED.build()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("solver", list(SHARDED_SEEDED_PINS))
def test_sharded_seeded_schedule(sharded_seeded_system, solver, workers):
    """In process and on the pool, each cell's solver sees the stream of
    its child seed."""
    result = greedy_covering_schedule(
        sharded_seeded_system, get_solver(solver), seed=11,
        shard=ShardSpec(cells=16, workers=workers),
    )
    assert (
        [_digest(s.active, s.tags_read) for s in result.slots],
        result.outcome.value,
    ) == SHARDED_SEEDED_PINS[solver]


def test_sparse_localsearch_schedule():
    result = run_scale_schedule(
        SCALE, ShardSpec(cells=16), solver="localsearch", seed=11
    )
    assert (
        [
            _digest(s.active_readers, s.tags_read, s.cells_solved,
                    s.boundary_repairs)
            for s in result.slots
        ],
        result.outcome,
    ) == SPARSE_LOCALSEARCH_PIN
