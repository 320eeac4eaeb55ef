"""Tests for the persistent worker pool (``repro.perf.pool``).

The pool's contract has four load-bearing clauses, each pinned here:

* **amortisation** — one fork per run (``pool_spawns == 1``) no matter how
  many slots/maps dispatch through it, where a pool used for one map
  spawns once per map;
* **bit-identity** — worker count and pool mode (fork / serial) never
  change schedules or work counters;
* **clean shutdown** — exiting the pool (normally or through a solver
  exception) terminates and joins every child;
* **recorded degradation** — nested dispatches run serially with a
  counter and a once-per-process warning, never silently, and a closure
  that missed the fork raises;
* **supervision** — a SIGKILLed or wedged worker never hangs a dispatch:
  the pool tears down, respawns within its budget (``pool_respawns``),
  enforces the per-dispatch deadline (``pool_deadline_hits``), and replays
  the payload slice serially as a last resort, all without changing
  results (:class:`~repro.obs.events.PoolRecovery`).

Plus the ``REPRO_WORKERS`` environment default honoured by every
``--workers`` CLI flag (precedence CLI > env > serial).
"""

import functools
import multiprocessing
import os
import signal
import warnings

import numpy as np
import pytest

from repro.core import get_solver, greedy_covering_schedule
from repro.model.system import build_system
from repro.obs.collectors import RunCollector
from repro.obs.events import PoolDispatch, PoolRecovery, TraceRecorder, recording
from repro.perf import parallel as parallel_module
from repro.perf import pool as pool_module
from repro.perf.parallel import env_default_workers, in_pool_worker
from repro.perf.pool import WorkerPool
from repro.shard import ScaleDeployment, ShardSpec, run_scale_schedule
from repro.util.validation import check_workers

#: Small enough for CI, sharded enough (>= 4 live cells) that every slot
#: actually dispatches parallel work.
DEPLOYMENT = ScaleDeployment(num_readers=120, num_tags=1500, side=160.0, seed=7)
CELLS = 16
SEED = 11
MAX_SLOTS = 40

TIMING = (
    "solver_wall_clock_s",
    "solver_seconds_by_name",
    "stage_seconds_by_name",
    "pool_spawns",
    "pool_tasks",
    "pool_payload_bytes",
    "pool_respawns",
    "pool_deadline_hits",
    "relay_dropped_events",
    "histograms",
)


def run_scale(spec, record=True):
    """One pinned array-first scale schedule; returns ``(result,
    metrics-or-None)``."""
    if not record:
        result = run_scale_schedule(
            DEPLOYMENT, spec, solver="ghc", seed=SEED, max_slots=MAX_SLOTS
        )
        return result, None
    collector = RunCollector()
    with recording(collector):
        result = run_scale_schedule(
            DEPLOYMENT, spec, solver="ghc", seed=SEED, max_slots=MAX_SLOTS
        )
    return result, collector.summary()


@functools.lru_cache(maxsize=1)
def dense_system():
    return build_system(*DEPLOYMENT.materialize())


def run_sharded(spec, record=True):
    """The same deployment through the dense sharded driver, the one that
    holds a worker pool; returns ``(result, metrics-or-None)``."""

    def run():
        return greedy_covering_schedule(
            dense_system(), get_solver("ghc"), seed=SEED,
            max_slots=MAX_SLOTS, shard=spec,
        )

    if not record:
        return run(), None
    collector = RunCollector()
    with recording(collector):
        result = run()
    return result, collector.summary()


def assert_same_schedule(a, b):
    assert a.size == b.size
    for sa, sb in zip(a.slots, b.slots):
        assert np.array_equal(sa.active, sb.active)
        assert np.array_equal(sa.tags_read, sb.tags_read)
    assert a.tags_read_total == b.tags_read_total


def strip_timing(summary):
    return {k: v for k, v in summary.items() if k not in TIMING}


def _double(x):
    return 2 * x


def _explode(x):
    raise ZeroDivisionError(f"worker failed on {x!r}")


def _die_until_marker(task):
    """Module-level: the first worker to see the marker file absent creates
    it and SIGKILLs itself (a transient crash — the respawned pool sees the
    marker and succeeds).  The ``in_pool_worker`` guard keeps the parent's
    serial replay from killing the test process."""
    x, marker = task
    if in_pool_worker() and not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return 2 * x


def _die_always(x):
    """Module-level: every forked worker SIGKILLs itself on dispatch (a
    permanent crash regime — only the parent's serial replay can finish)."""
    if in_pool_worker():
        os.kill(os.getpid(), signal.SIGKILL)
    return 2 * x


def _hang_in_worker(x):
    """Module-level: wedges forever inside a worker (deadline fodder); runs
    instantly in the parent's serial replay."""
    if in_pool_worker():
        import time

        time.sleep(3600)
    return 2 * x


def no_leaked_children():
    for child in multiprocessing.active_children():
        child.join(timeout=5)
    return not multiprocessing.active_children()


class _Scaler:
    def __init__(self, k):
        self.k = k

    def mul(self, x):
        return self.k * x


class TestWorkerPool:
    def test_map_preserves_payload_order(self):
        with WorkerPool(4) as pool:
            assert pool.map(_double, range(20)) == [2 * i for i in range(20)]

    def test_one_spawn_across_many_maps(self):
        collector = RunCollector()
        with recording(collector), WorkerPool(2) as pool:
            for _ in range(5):
                pool.map(_double, [1, 2, 3])
        assert collector.pool_counters["pool_spawns"] == 1
        assert collector.pool_counters["pool_tasks"] == 15
        assert collector.pool_counters["pool_payload_bytes"] > 0
        assert collector.stage_times.labels() == ["pool.dispatch"]
        assert collector.stage_times.count("pool.dispatch") == 5

    def test_dispatch_events_report_persistent_mode(self):
        rec = TraceRecorder()
        with recording(rec), WorkerPool(2) as pool:
            pool.map(_double, [1, 2])
            pool.map(_double, [3, 4])
        dispatches = [e for e in rec.events if isinstance(e, PoolDispatch)]
        assert len(dispatches) == 2
        # the spawn is charged to the dispatch that started the pool
        assert [d.spawned for d in dispatches] == [1, 0]

    def test_bound_method_roundtrip(self):
        scaler = _Scaler(10)
        with WorkerPool(2) as pool:
            pool.register(scaler.mul)
            # bound methods compare by value: re-accessing registers nothing
            assert pool.register(scaler.mul) == 0
            assert pool.map(scaler.mul, [1, 2, 3]) == [10, 20, 30]

    def test_serial_pool_runs_inline_and_emits_nothing(self):
        collector = RunCollector()
        with recording(collector), WorkerPool(1) as pool:
            assert pool.map(_double, [1, 2]) == [2, 4]
            assert not pool.started
        assert collector.pool_counters["pool_spawns"] == 0
        assert "pool_spawns" not in collector.summary()

    def test_register_after_fork_rejected(self):
        with WorkerPool(2) as pool:
            pool.map(_double, [1])
            with pytest.raises(RuntimeError, match="already forked"):
                pool.register(_Scaler(3).mul)

    def test_post_fork_closure_raises(self):
        k = 7
        with WorkerPool(2) as pool:
            pool.map(_double, [1])  # fork now, closure not in the snapshot
            with pytest.raises(RuntimeError, match="already forked"):
                pool.map(lambda x: k * x, [1, 2, 3])
            # a module-level function missed the snapshot just the same
            with pytest.raises(RuntimeError, match="already forked"):
                pool.map(_explode, [0])
            # the registered callable still maps
            assert pool.map(_double, [4, 5]) == [8, 10]

    def test_closed_pool_rejects_use(self):
        pool = WorkerPool(2)
        pool.map(_double, [1])
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            pool.map(_double, [2])
        assert no_leaked_children()

    def test_worker_exception_propagates_and_children_join(self):
        with pytest.raises(ZeroDivisionError, match="worker failed"):
            with WorkerPool(2) as pool:
                pool.register(_explode)  # into the fork snapshot
                pool.map(_double, [1, 2])
                pool.map(_explode, [0, 1])  # raises inside a forked worker
        assert no_leaked_children()

    def test_thread_fallback_matches_fork_results(self, monkeypatch):
        """Without fork a multi-worker pool maps serially in process: the
        fork results, and neither a dispatch event nor a span."""
        with WorkerPool(3) as pool:
            assert pool.mode == "fork"
            forked = pool.map(_double, range(10))
        monkeypatch.setattr(pool_module, "fork_available", lambda: False)
        monkeypatch.setattr(parallel_module, "_NO_FORK_WARNED", False)
        rec = TraceRecorder()
        with pytest.warns(RuntimeWarning, match="os.fork unavailable"):
            with recording(rec), WorkerPool(3) as pool:
                assert pool.mode == "serial"
                out = pool.map(_double, range(10))
                assert not pool.started
        assert out == forked == [2 * i for i in range(10)]
        assert rec.events == []

    def test_pool_inside_pool_worker_degrades_serially(self, monkeypatch):
        monkeypatch.setattr(parallel_module, "_IN_POOL_WORKER", True)
        monkeypatch.setattr(parallel_module, "_NESTED_WARNED", True)
        before = parallel_module.nested_serial_calls
        with WorkerPool(4) as pool:
            assert pool.mode == "serial"
            assert pool.map(_double, [1, 2]) == [2, 4]
        assert parallel_module.nested_serial_calls == before + 1


class TestPoolSupervision:
    """A crashed or hung worker degrades a dispatch, never hangs or fails
    it: results stay payload-order correct through respawn and the serial
    last resort, and every recovery is recorded."""

    def test_transient_worker_death_respawns_and_results_correct(self, tmp_path):
        marker = str(tmp_path / "died-once")
        payloads = [(i, marker) for i in range(6)]
        rec = TraceRecorder()
        with recording(rec):
            with WorkerPool(2, respawn_backoff_s=0.0) as pool:
                out = pool.map(_die_until_marker, payloads)
        assert out == [2 * i for i in range(6)]
        assert pool.respawns >= 1
        assert pool.deadline_hits == 0
        recoveries = [e for e in rec.events if isinstance(e, PoolRecovery)]
        assert recoveries, "worker death must emit a PoolRecovery event"
        assert recoveries[0].reason == "worker-death"
        assert recoveries[0].respawned is True
        assert recoveries[0].serial_replay is False
        assert no_leaked_children()

    def test_permanent_crash_exhausts_budget_then_serial_replay(self):
        rec = TraceRecorder()
        with recording(rec):
            with WorkerPool(2, max_respawns=1, respawn_backoff_s=0.0) as pool:
                out = pool.map(_die_always, range(5))
                # the budget is spent: later maps run serially, deterministically
                again = pool.map(_die_always, range(5))
        assert out == [2 * i for i in range(5)]
        assert again == out
        assert pool.respawns == 1  # bounded by max_respawns
        recoveries = [e for e in rec.events if isinstance(e, PoolRecovery)]
        assert [r.respawned for r in recoveries] == [True, False]
        assert recoveries[-1].serial_replay is True
        assert no_leaked_children()

    def test_dispatch_deadline_hits_and_serial_replay(self):
        rec = TraceRecorder()
        with recording(rec):
            with WorkerPool(
                2, dispatch_deadline_s=0.3, max_respawns=0,
                respawn_backoff_s=0.0,
            ) as pool:
                out = pool.map(_hang_in_worker, range(4))
        assert out == [2 * i for i in range(4)]
        assert pool.deadline_hits == 1
        recoveries = [e for e in rec.events if isinstance(e, PoolRecovery)]
        assert [r.reason for r in recoveries] == ["deadline"]
        assert recoveries[0].serial_replay is True
        assert no_leaked_children()

    def test_collector_exports_supervision_counters(self):
        collector = RunCollector()
        with recording(collector):
            with WorkerPool(
                2, dispatch_deadline_s=0.3, max_respawns=0,
                respawn_backoff_s=0.0,
            ) as pool:
                assert pool.map(_hang_in_worker, [1, 2]) == [2, 4]
        summary = collector.summary()
        assert summary["pool_deadline_hits"] == 1
        assert summary["pool_respawns"] == 0
        assert no_leaked_children()

    def test_deadline_validation_and_env_default(self, monkeypatch):
        with pytest.raises(ValueError, match="dispatch_deadline_s"):
            WorkerPool(2, dispatch_deadline_s=0.0)
        monkeypatch.setenv("REPRO_POOL_DEADLINE", "2.5")
        assert WorkerPool(2)._deadline_s == 2.5
        for bad in ("", "  ", "soon", "-1", "0"):
            monkeypatch.setenv("REPRO_POOL_DEADLINE", bad)
            assert WorkerPool(2)._deadline_s is None
        monkeypatch.delenv("REPRO_POOL_DEADLINE")
        # an explicit constructor deadline beats the environment
        monkeypatch.setenv("REPRO_POOL_DEADLINE", "9")
        assert WorkerPool(2, dispatch_deadline_s=1.0)._deadline_s == 1.0

    def test_close_safe_after_failed_start(self, monkeypatch):
        pool = WorkerPool(2)

        def _no_fork(method):
            raise RuntimeError("fork refused")

        monkeypatch.setattr(pool_module.multiprocessing, "get_context", _no_fork)
        with pytest.raises(RuntimeError, match="fork refused"):
            pool.start()
        pool.close()  # must not raise on half-started state
        pool.close()  # and stays idempotent
        with pytest.raises(RuntimeError, match="closed"):
            pool.map(_double, [1])
        assert no_leaked_children()


class TestOneShotForkMap:
    """A pool used for one map and closed: the one-shot case."""

    def test_parallel_fork_map_is_one_oneshot_pool(self):
        rec = TraceRecorder()
        with recording(rec), WorkerPool(2) as pool:
            assert pool.map(_double, [1, 2, 3]) == [2, 4, 6]
        dispatches = [e for e in rec.events if isinstance(e, PoolDispatch)]
        assert len(dispatches) == 1
        assert dispatches[0].spawned == 1
        assert no_leaked_children()


class TestNestedForkMap:
    """A pool built inside a pool worker maps serially."""

    def test_nested_fork_map_counted_and_warned_once(self, monkeypatch):
        monkeypatch.setattr(parallel_module, "_IN_POOL_WORKER", True)
        monkeypatch.setattr(parallel_module, "_NESTED_WARNED", False)
        before = parallel_module.nested_serial_calls
        with pytest.warns(RuntimeWarning, match="nested parallel dispatch"):
            with WorkerPool(4) as pool:
                assert pool.map(_double, [1, 2]) == [2, 4]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # second occurrence stays quiet
            with WorkerPool(4) as pool:
                assert pool.map(_double, [4, 5]) == [8, 10]
        assert parallel_module.nested_serial_calls == before + 2


class TestShardedBitIdentity:
    """Worker count / pool mode never change a sharded schedule."""

    @pytest.fixture(scope="class")
    def serial(self):
        return run_sharded(ShardSpec(cells=CELLS))

    def test_pool_matches_serial(self, serial):
        result, metrics = serial
        pooled, pooled_metrics = run_sharded(ShardSpec(cells=CELLS, workers=2))
        assert_same_schedule(pooled, result)
        assert strip_timing(pooled_metrics) == strip_timing(metrics)
        # the tentpole claim: one fork for the whole run
        assert pooled_metrics["pool_spawns"] == 1
        assert "pool_spawns" not in metrics  # serial records keep their shape

    def test_array_driver_solves_in_process(self):
        """``run_scale_schedule`` ignores ``workers``: it never spawns a
        pool and matches its serial run."""
        result, metrics = run_scale(ShardSpec(cells=CELLS))
        asked, asked_metrics = run_scale(ShardSpec(cells=CELLS, workers=2))
        assert asked.slots == result.slots
        assert asked.tags_read_total == result.tags_read_total
        assert strip_timing(asked_metrics) == strip_timing(metrics)
        assert "pool_spawns" not in asked_metrics

    def test_nested_run_holds_no_pool_and_matches_serial(
        self, serial, monkeypatch
    ):
        from repro.shard.partition import ShardPartition
        from repro.shard.runtime import ShardRuntime

        monkeypatch.setattr(parallel_module, "_IN_POOL_WORKER", True)
        monkeypatch.setattr(parallel_module, "_NESTED_WARNED", True)
        spec = ShardSpec(cells=CELLS, workers=2)
        partition = ShardPartition.from_arrays(*DEPLOYMENT.materialize(), spec)
        runtime = ShardRuntime(
            partition, partition.owner_of_tag >= 0, _double, False
        )
        before = parallel_module.nested_serial_calls
        with runtime.pool_scope() as pool:
            assert pool is None and runtime._pool is None
        assert parallel_module.nested_serial_calls == before + 1
        result, _ = serial
        nested, _ = run_sharded(spec, record=False)
        assert_same_schedule(nested, result)

    def test_forkless_sharded_run_matches_serial(self, serial, monkeypatch):
        """Without fork the dense sharded driver holds no pool and solves
        its cells in process, exactly as a serial run."""
        from repro.shard.partition import ShardPartition
        from repro.shard.runtime import ShardRuntime

        monkeypatch.setattr(pool_module, "fork_available", lambda: False)
        monkeypatch.setattr(parallel_module, "_NO_FORK_WARNED", True)
        spec = ShardSpec(cells=CELLS, workers=2)
        partition = ShardPartition.from_arrays(*DEPLOYMENT.materialize(), spec)
        runtime = ShardRuntime(
            partition, partition.owner_of_tag >= 0, _double, False
        )
        with runtime.pool_scope() as pool:
            assert pool is None and runtime._pool is None
        result, _ = serial
        forkless, _ = run_sharded(spec, record=False)
        assert_same_schedule(forkless, result)

    def test_solver_exception_closes_pool_and_resets_runtime(self):
        from repro.shard.partition import ShardPartition
        from repro.shard.runtime import ShardRuntime
        from repro.obs.events import get_recorder
        from repro.util.rng import as_rng

        partition = ShardPartition.from_arrays(
            *DEPLOYMENT.materialize(), ShardSpec(cells=CELLS, workers=2)
        )

        def exploding_solver(system, unread, rng, **kwargs):
            raise RuntimeError("solver blew up")

        runtime = ShardRuntime(
            partition, partition.owner_of_tag >= 0, exploding_solver, False
        )
        with pytest.raises(RuntimeError, match="solver blew up"):
            with runtime.pool_scope():
                runtime.solve_slot(0, as_rng(0), get_recorder())
        assert runtime._pool is None
        assert no_leaked_children()


class TestReproWorkersEnv:
    def test_cli_value_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "8")
        assert env_default_workers(3) == 3

    def test_env_fills_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert env_default_workers(None) == 2

    def test_unset_and_blank_mean_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert env_default_workers(None) is None
        monkeypatch.setenv("REPRO_WORKERS", "  ")
        assert env_default_workers(None) is None

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            env_default_workers(None)

    def test_check_workers_validation(self):
        assert check_workers("workers", " -1 ") == -1
        assert check_workers("workers", np.int64(4)) == 4
        for bad in (True, 2.0, "2.5", None):
            with pytest.raises(ValueError):
                check_workers("workers", bad)

    def test_solve_cli_honours_env(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_WORKERS", "2")
        code = main([
            "solve", "--readers", "40", "--tags", "300", "--side", "120",
            "--seed", "3", "--schedule", "--shard-cells", "9",
        ])
        assert code == 0
        assert "covering schedule" in capsys.readouterr().out


@pytest.mark.scale_smoke
def test_scale_smoke_pool_honours_repro_workers():
    """The CI leg runs this under ``REPRO_WORKERS=2``: the env-selected
    worker count must leave both drivers' schedules bit-identical to
    serial.  The array-first driver solves in process (zero pool spawns);
    a parallel dense sharded run shows exactly one pool spawn."""
    workers = env_default_workers(None)
    serial_result, _ = run_scale(ShardSpec(cells=CELLS), record=False)
    result, metrics = run_scale(ShardSpec(cells=CELLS, workers=workers))
    assert result.slots == serial_result.slots
    assert result.tags_read_total == serial_result.tags_read_total
    assert "pool_spawns" not in metrics
    serial_sharded, _ = run_sharded(ShardSpec(cells=CELLS), record=False)
    sharded, metrics = run_sharded(ShardSpec(cells=CELLS, workers=workers))
    assert_same_schedule(sharded, serial_sharded)
    if workers is not None and workers > 1 and os.cpu_count() is not None:
        assert metrics["pool_spawns"] == 1
