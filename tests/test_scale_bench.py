"""Tests for the scale tier's sparse driver and benchmark matrix.

``run_scale_schedule`` (the array-first driver that never builds global
dense matrices) is checked against the sharded **and** unsharded MCS
drivers on a deployment small enough to afford both; the ``scale_smoke``
marker runs a reduced scale matrix end-to-end and schema-validates the ``BENCH_scale.json`` records.
"""

import os
import signal
import sys
import tracemalloc
from functools import cached_property

import numpy as np
import pytest

from repro.cli import main
from repro.core import get_solver, greedy_covering_schedule
from repro.faults import FaultPlan, FaultPolicy, PermanentCrash
from repro.model.system import RFIDSystem, build_system
from repro.obs.bench import write_bench_files
from repro.perf import pool as pool_module
from repro.perf.parallel import in_pool_worker
from repro.obs.export import REQUIRED_METRICS, load_bench, validate_run
from repro.shard import ScaleDeployment, ShardSpec, run_scale_schedule
from repro.shard.bench import (
    FULL_POINTS,
    IDENT_POINTS,
    QUICK_POINTS,
    ScalePoint,
    format_scale_table,
    run_scale_matrix,
)

#: Small enough for the dense reference drivers, big enough to shard.
SMALL = ScaleDeployment(num_readers=150, num_tags=2000, side=250.0, seed=17)


def small_point(label, **overrides):
    kw = dict(
        solver="ghc", driver="mcs",
        num_readers=40, num_tags=400, side=100.0,
        lambda_interference=10.0, lambda_interrogation=5.0, seed=13,
    )
    kw.update(overrides)
    return ScalePoint(label=label, **kw)


#: The quick matrix, shrunk to CI size: the ident pair certifies the
#: trivial sharded path, the sharded mcs and array points cover both
#: drivers.  Same shape as ``QUICK_POINTS``/``FULL_POINTS``, ~100x smaller.
SMOKE_POINTS = (
    small_point("smoke_ident"),
    small_point("smoke_ident", shard_cells=1),
    small_point(
        "smoke_shard",
        num_readers=60, num_tags=600, side=200.0, seed=5, shard_cells=16,
    ),
    small_point(
        "smoke_array", driver="array",
        num_readers=SMALL.num_readers, num_tags=SMALL.num_tags,
        side=SMALL.side, seed=SMALL.seed, shard_cells=0,
    ),
)


class TestScaleDriver:
    @pytest.fixture(scope="class")
    def arrays(self):
        return SMALL.materialize()

    @pytest.fixture(scope="class")
    def scale_result(self):
        return run_scale_schedule(SMALL, ShardSpec(cells=0), seed=17)

    def test_materialize_is_reproducible(self, arrays):
        again = ScaleDeployment(
            num_readers=150, num_tags=2000, side=250.0, seed=17
        ).materialize()
        for a, b in zip(arrays, again):
            assert np.array_equal(a, b)

    def test_matches_sharded_mcs_slot_for_slot(self, arrays, scale_result):
        """Same partition, same seed, same solver -> the sparse driver and
        the dense sharded MCS driver walk the same schedule."""
        system = build_system(*arrays)
        dense = greedy_covering_schedule(
            system, get_solver("ghc"), seed=17, shard=ShardSpec(cells=0),
        )
        assert scale_result.size == dense.size
        assert scale_result.complete == dense.complete
        assert scale_result.tags_read_total == dense.tags_read_total
        assert scale_result.uncoverable_tags == len(dense.uncovered_tags)
        for sparse_slot, dense_slot in zip(scale_result.slots, dense.slots):
            assert sparse_slot.active_readers == len(dense_slot.active)
            assert sparse_slot.tags_read == len(dense_slot.tags_read)

    def test_matches_unsharded_coverage(self, arrays, scale_result):
        system = build_system(*arrays)
        base = greedy_covering_schedule(system, get_solver("ghc"), seed=17)
        assert scale_result.complete == base.complete
        assert scale_result.tags_read_total == base.tags_read_total
        assert scale_result.uncoverable_tags == len(base.uncovered_tags)

    def test_deterministic(self, scale_result):
        again = run_scale_schedule(SMALL, ShardSpec(cells=0), seed=17)
        assert again.slots == scale_result.slots
        assert again.tags_read_total == scale_result.tags_read_total

    def test_max_slots_cap(self):
        capped = run_scale_schedule(
            SMALL, ShardSpec(cells=0), seed=17, max_slots=2
        )
        assert capped.size == 2
        assert not capped.complete

    def test_trivial_deployment_rejected(self):
        tiny = ScaleDeployment(num_readers=5, num_tags=20, side=5.0, seed=1)
        with pytest.raises(ValueError):
            run_scale_schedule(tiny, ShardSpec(cells=0))

    def test_one_cell_rejected_without_building_a_system(self, monkeypatch):
        """``cells=1`` on a large deployment is refused before any dense
        system (coverage and interference matrices) is derived."""

        def no_system(*args, **kwargs):
            raise AssertionError("a one-cell run must not build a system")

        monkeypatch.setattr(RFIDSystem, "_derive", no_system)
        deployment = ScaleDeployment(2000, 50_000, 632.0, seed=4242)
        with pytest.raises(ValueError, match="single cell"):
            run_scale_schedule(deployment, ShardSpec(cells=1))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_slots": -1},
            {"max_slots": 1.5},
            {"max_slots": True},
            {"max_stall_slots": 0},
            {"max_stall_slots": -1},
            {"max_stall_slots": 2.5},
            {"solver": "bogus"},
        ],
        ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_bad_arguments_rejected_before_the_deployment_is_drawn(
        self, monkeypatch, kwargs
    ):
        def no_draw(self):
            raise AssertionError("drawn before the arguments were checked")

        monkeypatch.setattr(ScaleDeployment, "materialize", no_draw)
        with pytest.raises((ValueError, KeyError)):
            run_scale_schedule(SMALL, ShardSpec(cells=0), **kwargs)


def _counting(monkeypatch, owner, name, calls):
    """Count calls of *owner.name* into *calls* while still running it."""
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[f"{owner.__name__}.{name}"] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestLazyCells:
    """The scale driver works from the partition's coverage relation: cell
    systems are built only for the cells that are solved one by one."""

    def test_fault_free_run_builds_no_system_packing_or_grid(self, monkeypatch):
        from collections import Counter

        from repro.geometry.grid import SpatialHashGrid
        from repro.perf.packed import PackedCoverage

        calls = Counter()
        _counting(monkeypatch, RFIDSystem, "_derive", calls)
        _counting(monkeypatch, SpatialHashGrid, "__init__", calls)
        _counting(monkeypatch, PackedCoverage, "__init__", calls)
        result = run_scale_schedule(SMALL, ShardSpec(cells=0), seed=17)
        assert result.complete
        assert not calls
        # the counters do see constructions
        build_system(*ScaleDeployment(20, 50, 30.0, seed=1).materialize())
        assert calls["RFIDSystem._derive"] == 1

    def test_faulted_run_builds_only_the_cells_it_solves_degraded(
        self, monkeypatch
    ):
        from repro.shard.partition import ShardCell
        from repro.shard.runtime import ShardRuntime

        # the cells themselves are kept, so their ids stay unique
        built, degraded = [], []
        build = ShardCell.subsystem.func

        def subsystem(cell):
            built.append(cell)
            return build(cell)

        solve = ShardRuntime._solve_cell

        def solve_cell(runtime, payload):
            if payload[3] is not None:
                degraded.append(runtime.partition.cells[payload[1]])
            return solve(runtime, payload)

        counted = cached_property(subsystem)
        counted.__set_name__(ShardCell, "subsystem")
        monkeypatch.setattr(ShardCell, "subsystem", counted)
        monkeypatch.setattr(ShardRuntime, "_solve_cell", solve_cell)
        deployment = TestScaleFaults.DEPLOY
        plan = FaultPlan.uniform_flaky(
            deployment.num_readers, 0.1, miss_rate=0.1, seed=3
        )
        result = run_scale_schedule(
            deployment, ShardSpec(cells=16), seed=11, faults=plan
        )
        assert result.complete
        assert built
        assert {id(c) for c in built} == {id(c) for c in degraded}


class TestScaleFaults:
    """The sparse driver's fault composition: deterministic degraded
    worlds, membership-driven refresh, and liveness under total loss."""

    DEPLOY = ScaleDeployment(num_readers=120, num_tags=1500, side=160.0, seed=7)

    def test_fault_free_outcome_is_complete(self):
        result = run_scale_schedule(self.DEPLOY, ShardSpec(cells=16), seed=11)
        assert result.complete
        assert result.outcome == "complete"

    def test_flaky_world_completes(self):
        # worker independence under a flaky plan is covered on the dense
        # sharded driver (test_shard.py); this driver solves in process
        plan = FaultPlan.uniform_flaky(
            self.DEPLOY.num_readers, 0.1, miss_rate=0.1, seed=3
        )
        serial = run_scale_schedule(
            self.DEPLOY, ShardSpec(cells=16), seed=11, faults=plan
        )
        assert serial.complete
        assert serial.outcome == "complete"
        # the fault world costs slots relative to the fault-free run
        clean = run_scale_schedule(self.DEPLOY, ShardSpec(cells=16), seed=11)
        assert serial.size >= clean.size
        assert serial.tags_read_total == clean.tags_read_total

    def test_permanent_crashes_stall_with_partial_coverage(self):
        # crash a handful of readers for good: their exclusively-owned
        # tags become unreachable, so the run stalls after reading the rest
        plan = FaultPlan(
            reader_faults=tuple(PermanentCrash(r, 0) for r in range(6)),
            miss_rate=0.2,
            seed=3,
        )
        result = run_scale_schedule(
            self.DEPLOY, ShardSpec(cells=16), seed=11, faults=plan,
            policy=FaultPolicy(max_stall_slots=6),
        )
        assert result.outcome == "stalled"
        assert not result.complete
        # everything not exclusively owned by the dead readers was read
        assert result.tags_read_total > 0

    def test_uncoverable_count_ignores_refresh_orphans(self):
        # a refresh orphans the dead readers' tags; they were coverable
        # when the run started, so they are not reported as uncoverable
        plan = FaultPlan(
            reader_faults=tuple(PermanentCrash(r, 0) for r in range(6)),
            seed=3,
        )
        result = run_scale_schedule(
            self.DEPLOY, ShardSpec(cells=16), seed=11, faults=plan,
            max_stall_slots=6,
        )
        clean = run_scale_schedule(self.DEPLOY, ShardSpec(cells=16), seed=11)
        assert not result.complete
        assert result.uncoverable_tags == clean.uncoverable_tags

    def test_total_miss_world_terminates_stalled(self):
        # liveness: with every read lost, the stall guard must end the run
        # in exactly max_stall_slots slots — never spin to the slot cap
        plan = FaultPlan(miss_rate=1.0, seed=1)
        result = run_scale_schedule(
            self.DEPLOY, ShardSpec(cells=16), seed=11, faults=plan,
            max_stall_slots=6,
        )
        assert result.outcome == "stalled"
        assert result.size == 6
        assert result.tags_read_total == 0


#: Marker path for the crash-mid-bench injection below.  Module-level so
#: forked pool workers inherit it (the wrapper is pickled by reference and
#: resolved against this module inside the child).
_CRASH_MARKER = None
_REAL_POOL_INVOKE = pool_module._pool_invoke


def _invoke_killing_once(task):
    """`_pool_invoke` wrapper: the first worker to run a task of the timed
    pass SIGKILLs itself mid-dispatch (exactly once, marker-file guarded);
    every later invocation — including the post-respawn retry — delegates
    unchanged.  The untimed memory pass runs first and under tracemalloc,
    which forked workers inherit, so it is left alone: the crash must land
    in the pass whose counters the record keeps."""
    if (
        in_pool_worker()
        and not tracemalloc.is_tracing()
        and _CRASH_MARKER is not None
        and not os.path.exists(_CRASH_MARKER)
    ):
        with open(_CRASH_MARKER, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_POOL_INVOKE(task)


class TestCrashMidBench:
    def test_worker_crash_mid_bench_keeps_bench_schema_valid(
        self, tmp_path, monkeypatch
    ):
        """A pool worker SIGKILLed while holding a dispatched chunk must
        not corrupt anything: the supervisor respawns, the matrix finishes
        with the same schedule as an uninjured run, and the appended
        ``BENCH_scale.json`` stays schema-valid (the atomic ``merge_run``
        contract).  The deadline env is a belt-and-braces bound in case
        ``multiprocessing.Pool``'s worker-maintenance thread absorbs the
        death before the supervisor's health poll sees it."""
        monkeypatch.setenv("REPRO_POOL_DEADLINE", "5")
        monkeypatch.setattr(
            sys.modules[__name__], "_CRASH_MARKER", str(tmp_path / "killed")
        )
        monkeypatch.setattr(pool_module, "_pool_invoke", _invoke_killing_once)
        point = small_point(
            "smoke_crash",
            num_readers=60, num_tags=600, side=200.0, seed=5,
            shard_cells=16, workers=2,
        )
        records = run_scale_matrix((point,))
        monkeypatch.undo()
        assert os.path.exists(str(tmp_path / "killed")), (
            "the crash must land mid-run"
        )
        paths = write_bench_files(records, tmp_path)
        data = load_bench(paths["scale"])
        assert len(data["runs"]) == 1
        for run in data["runs"]:
            validate_run(run)
        metrics = data["runs"][0]["metrics"]
        assert metrics["complete"] is True
        assert metrics["pool_respawns"] >= 1
        # the recovered schedule matches an uninjured serial run
        clean = run_scale_matrix((small_point(
            "smoke_crash",
            num_readers=60, num_tags=600, side=200.0, seed=5,
            shard_cells=16,
        ),))["scale"][0]["metrics"]
        assert metrics["slots"] == clean["slots"]
        assert metrics["tags_read"] == clean["tags_read"]


class TestMatrixDefinitions:
    def test_ident_pair_shares_label_and_scenario(self):
        a, b = IDENT_POINTS
        assert a.label == b.label
        assert a.shard_cells is None and b.shard_cells == 1
        assert a.scenario_dict()["seed"] == b.scenario_dict()["seed"]

    def test_full_matrix_extends_quick(self):
        assert QUICK_POINTS == FULL_POINTS[: len(QUICK_POINTS)]
        full = FULL_POINTS[-1]
        assert full.driver == "array"
        assert full.num_readers == 10_000 and full.num_tags == 1_000_000

    def test_table_handles_empty(self):
        assert "(no scale records)" in format_scale_table({"scale": []})


@pytest.mark.scale_smoke
def test_scale_smoke_end_to_end(tmp_path):
    """Reduced scale matrix -> records -> BENCH_scale.json."""
    records = run_scale_matrix(SMOKE_POINTS)
    assert set(records) == {"scale"}
    runs = records["scale"]
    assert len(runs) == len(SMOKE_POINTS)
    for run in runs:
        validate_run(run)
        assert run["bench"] == "scale"
        assert "backend" not in run
        for field in REQUIRED_METRICS["scale"]:
            assert field in run["metrics"], field
        # the scale family always measures memory
        assert run["metrics"]["peak_tracemalloc_kb"] > 0.0
        assert run["metrics"]["complete"]

    # ident pair: identical work counters (the bit-identity certificate)
    base, trivial = runs[0], runs[1]
    noise = ("_s", "_by_name", "_kb", "histograms")
    strip = lambda m: {k: v for k, v in m.items() if not k.endswith(noise)}
    assert strip(base["metrics"]) == strip(trivial["metrics"])

    # sharded runs carry the shard work counters, unsharded do not
    assert "shard_cells" not in base["metrics"]
    assert runs[2]["metrics"]["shard_cells"] > 1
    assert runs[3]["metrics"]["shard_cells"] > 1

    path = write_bench_files(records, tmp_path)["scale"]
    assert path == tmp_path / "BENCH_scale.json"
    data = load_bench(path)
    assert len(data["runs"]) == len(runs)
    for run in data["runs"]:
        validate_run(run)


class TestCLI:
    def test_solve_with_shard(self, capsys):
        code = main([
            "solve", "--readers", "40", "--tags", "300", "--side", "120",
            "--seed", "3", "--schedule", "--shard-cells", "9",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "covering schedule" in out
        assert "complete=True" in out

    def test_shard_requires_schedule(self, capsys):
        code = main([
            "solve", "--readers", "10", "--tags", "50", "--shard-cells", "4",
        ])
        assert code == 2
        assert "--shard-cells requires --schedule" in capsys.readouterr().err

    def test_bench_scale_dry_run(self, tmp_path, monkeypatch, capsys):
        """CLI wiring only — the matrix itself is monkeypatched (the real
        quick points are minutes of work, covered by the smoke marker)."""
        import repro.shard.bench as shard_bench

        canned = run_scale_matrix(SMOKE_POINTS[:2])
        seen = {}

        def fake_matrix(points):
            seen["points"] = list(points)
            return canned

        monkeypatch.setattr(shard_bench, "run_scale_matrix", fake_matrix)
        code = main([
            "bench", "--scale", "--quick", "--dry-run",
            "--shard-cells", "64", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "scale matrix" in out
        assert "smoke_ident" in out
        assert not (tmp_path / "BENCH_scale.json").exists()
        # --shard-cells rewrote the sharded points only
        assert len(seen["points"]) == len(QUICK_POINTS)
        for point in seen["points"]:
            if point.shard_cells is not None:
                assert point.shard_cells == 64

    def test_bench_scale_writes_file(self, tmp_path, monkeypatch, capsys):
        import repro.shard.bench as shard_bench

        canned = run_scale_matrix(SMOKE_POINTS[:2])
        monkeypatch.setattr(
            shard_bench, "run_scale_matrix", lambda points: canned
        )
        code = main([
            "bench", "--scale", "--quick", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        assert "appended 2 scale runs" in capsys.readouterr().out
        data = load_bench(tmp_path / "BENCH_scale.json")
        assert len(data["runs"]) == 2
