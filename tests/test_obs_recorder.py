"""Tests for the obs subsystem: recorder, collectors, export, bench CLI."""

import json

import pytest

from repro.faults import FaultPlan

from repro.cli import main
from repro.core import get_solver, greedy_covering_schedule
from repro.deployment import Scenario
from repro.obs import (
    EVENT_TYPES,
    NULL_RECORDER,
    CandidateEvaluation,
    Recorder,
    RunCollector,
    SlotEnd,
    SlotStart,
    TraceRecorder,
    get_recorder,
    load_bench,
    merge_run,
    recording,
    run_record,
    set_recorder,
    validate_run,
)
from repro.obs.bench import QUICK_MATRIX, run_mcs_bench, run_oneshot_bench

SMALL = Scenario(
    num_readers=10,
    num_tags=80,
    side=40.0,
    lambda_interference=8,
    lambda_interrogation=5,
    seed=7,
)


@pytest.fixture(scope="module")
def system():
    return SMALL.build()


def _negate(x):
    return -x


class _BoobyTrap(Recorder):
    """Disabled recorder whose emit must never be reached."""

    enabled = False

    def emit(self, event):
        raise AssertionError(f"disabled recorder received {event!r}")


class TestNullRecorderOverhead:
    def test_default_recorder_is_null_and_disabled(self):
        assert get_recorder() is NULL_RECORDER
        assert not get_recorder().enabled

    def test_null_emit_is_noop(self):
        NULL_RECORDER.emit(SlotStart(slot=0, unread_tags=1))  # must not raise

    def test_disabled_recorder_never_computes(self, system):
        """The whole instrumented stack must skip event construction when
        tracing is off — a booby-trapped disabled recorder proves no site
        calls emit()."""
        with recording(_BoobyTrap()):
            schedule = greedy_covering_schedule(
                system, get_solver("exact"), linklayer="aloha", seed=0
            )
        assert schedule.complete

    def test_disabled_recorder_never_computes_under_faults(self, system):
        """The fault-tolerant driver (and every span site it crosses) must
        also skip event construction when tracing is off."""
        plan = FaultPlan.uniform_flaky(
            system.num_readers, 0.2, miss_rate=0.1, seed=5
        )
        with recording(_BoobyTrap()):
            schedule = greedy_covering_schedule(
                system,
                get_solver("ghc"),
                linklayer="aloha",
                seed=0,
                faults=plan,
                max_slots=4000,
            )
        assert schedule.tags_read_total > 0

    def test_disabled_recorder_never_computes_in_sweep_and_distsim(self, system):
        """Sweep and distsim span sites stay silent when tracing is off."""
        from repro.experiments.sweep import run_sweep

        with recording(_BoobyTrap()):
            get_solver("distributed")(system, None, 0)
            run_sweep("x", [1.0], lambda v, s: {"m": v + s}, seeds=[0])

    def test_disabled_pool_reads_no_clock(self, monkeypatch):
        """With tracing off the worker pool reads no timing clock: its only
        timer is the ``pool.dispatch`` span, which is off.  Supervision
        keeps its ``time.monotonic`` deadline clock."""
        import time as real_time

        from repro.perf import pool as pool_module
        from repro.perf.pool import WorkerPool
        from repro.shard import ShardSpec

        class _NoPerfCounter:
            monotonic = staticmethod(real_time.monotonic)
            sleep = staticmethod(real_time.sleep)

            @staticmethod
            def perf_counter():
                raise AssertionError("pool read perf_counter with tracing off")

        monkeypatch.setattr(pool_module, "time", _NoPerfCounter)
        with recording(_BoobyTrap()):
            with WorkerPool(2) as pool:
                assert pool.map(_negate, [1, 2, 3]) == [-1, -2, -3]
            system = Scenario(
                num_readers=60, num_tags=600, side=200.0, seed=5
            ).build()
            schedule = greedy_covering_schedule(
                system, get_solver("ghc"), seed=9,
                shard=ShardSpec(cells=16, workers=2),
            )
        assert schedule.complete

    def test_disabled_path_matches_traced_results(self, system):
        """Tracing must be purely observational: identical schedules with
        and without a collector installed."""
        plain = greedy_covering_schedule(system, get_solver("ptas", k=2), seed=0)
        with recording(RunCollector()):
            traced = greedy_covering_schedule(
                system, get_solver("ptas", k=2), seed=0
            )
        assert plain.reads_per_slot() == traced.reads_per_slot()
        assert plain.complete == traced.complete


class TestRecorderInstallation:
    def test_recording_restores_previous(self):
        outer = TraceRecorder()
        with recording(outer):
            assert get_recorder() is outer
            with recording(TraceRecorder()) as inner:
                assert get_recorder() is inner
            assert get_recorder() is outer
        assert get_recorder() is NULL_RECORDER

    def test_recording_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with recording(TraceRecorder()):
                raise RuntimeError("boom")
        assert get_recorder() is NULL_RECORDER

    def test_set_recorder_none_restores_null(self):
        previous = set_recorder(TraceRecorder())
        assert previous is NULL_RECORDER
        set_recorder(None)
        assert get_recorder() is NULL_RECORDER

    def test_trace_recorder_keeps_event_order(self, system):
        with recording(TraceRecorder()) as rec:
            greedy_covering_schedule(system, get_solver("exact"), seed=0)
        kinds = [type(e) for e in rec.events]
        assert kinds.index(SlotStart) < kinds.index(SlotEnd)
        assert all(isinstance(e, EVENT_TYPES) for e in rec.events)

    def test_trace_recorder_caps_buffer_and_counts_drops(self, system):
        with recording(TraceRecorder(max_events=5)) as rec:
            greedy_covering_schedule(system, get_solver("exact"), seed=0)
        assert len(rec.events) == 5
        assert rec.dropped_events > 0
        uncapped = TraceRecorder()
        with recording(uncapped):
            greedy_covering_schedule(system, get_solver("exact"), seed=0)
        assert len(uncapped.events) == 5 + rec.dropped_events
        assert [type(e) for e in rec.events] == [
            type(e) for e in uncapped.events[:5]
        ]

    def test_trace_recorder_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError, match="max_events"):
            TraceRecorder(max_events=0)


class TestRunCollector:
    def test_schedule_aggregation_matches_result(self, system):
        with recording(RunCollector()) as col:
            schedule = greedy_covering_schedule(system, get_solver("exact"), seed=0)
        assert col.counters["slots"] == schedule.size
        assert col.counters["tags_read"] == schedule.tags_read_total
        assert col.counters["solver_calls"] == schedule.size
        assert col.tags_per_slot == schedule.reads_per_slot()
        assert col.schedule_complete == schedule.complete
        assert col.counters["sets_evaluated"] > 0
        assert len(col.sets_per_slot) == schedule.size
        assert sum(col.sets_per_slot) == col.counters["sets_evaluated"]
        assert col.solver_times.count("exact") == schedule.size
        assert col.solver_wall_clock_s > 0.0

    def test_linklayer_events_aggregate(self, system):
        with recording(RunCollector()) as col:
            schedule = greedy_covering_schedule(
                system, get_solver("exact"), linklayer="aloha", seed=0
            )
        assert col.counters["linklayer_micro_slots"] == schedule.total_micro_slots
        assert col.counters["linklayer_work"] >= col.counters["linklayer_micro_slots"]

    def test_distributed_solver_emits_distsim_rounds(self, system):
        with recording(RunCollector()) as col:
            get_solver("distributed")(system, None, 0)
        assert col.counters["distsim_rounds"] > 0
        assert col.counters["distsim_messages"] > 0

    def test_sets_by_context_contexts(self, system):
        with recording(RunCollector()) as col:
            get_solver("ptas", k=2)(system, None, 0)
            get_solver("localsearch", iterations=50, restarts=1)(system, None, 0)
        assert "ptas.dp_cells" in col.sets_by_context
        assert "exact.bnb" in col.sets_by_context  # PTAS leaf solves
        assert "localsearch.moves" in col.sets_by_context
        assert sum(col.sets_by_context.values()) == col.counters["sets_evaluated"]

    def test_sweep_points_recorded(self):
        from repro.experiments.sweep import run_sweep

        with recording(RunCollector()) as col:
            run_sweep("x", [1.0, 2.0], lambda v, s: {"m": v + s}, seeds=[0, 1])
        assert col.counters["sweep_points"] == 4
        assert col.sweep_times.count("x") == 4

    def test_unknown_events_ignored(self):
        col = RunCollector()
        col.emit(object())  # must not raise
        assert col.counters["slots"] == 0

    def test_unknown_events_counted_but_not_exported(self, system):
        """Foreign events tick the diagnostic ``ignored_events`` tally; span
        events are structural and do not — and neither reaches summary()."""
        col = RunCollector()
        col.emit(object())
        col.emit(object())
        assert col.ignored_events == 2
        with recording(RunCollector()) as traced:
            greedy_covering_schedule(system, get_solver("exact"), seed=0)
        assert traced.ignored_events == 0  # spans pass through silently
        assert "ignored_events" not in col.summary()
        assert "ignored_events" not in traced.summary()

    def test_collector_counts_outside_slots(self):
        col = RunCollector()
        col.emit(CandidateEvaluation(context="exact.bnb", count=5))
        assert col.counters["sets_evaluated"] == 5
        assert col.sets_per_slot == []


class TestExport:
    def _record(self, bench="mcs"):
        point = QUICK_MATRIX[0]
        return run_mcs_bench(point) if bench == "mcs" else run_oneshot_bench(point)

    def test_run_record_is_schema_valid(self):
        validate_run(self._record("mcs"))
        validate_run(self._record("oneshot"))

    def test_validate_rejects_missing_field(self):
        record = self._record()
        del record["solver"]
        with pytest.raises(ValueError, match="missing fields"):
            validate_run(record)

    def test_validate_rejects_undeclared_metric(self):
        record = self._record()
        record["metrics"]["made_up"] = 1
        with pytest.raises(ValueError, match="undeclared"):
            validate_run(record)

    def test_validate_rejects_missing_required_metric(self):
        record = self._record()
        del record["metrics"]["slots_to_completion"]
        with pytest.raises(ValueError, match="required metrics"):
            validate_run(record)

    def test_merge_round_trips_through_json(self, tmp_path):
        path = tmp_path / "BENCH_mcs.json"
        record = self._record()
        merge_run(path, record)
        merge_run(path, self._record())
        data = load_bench(path)
        assert data["benchmark"] == "mcs"
        assert len(data["runs"]) == 2
        assert data["runs"][0] == record  # JSON round-trip preserves fields

    def test_merge_writes_atomically(self, tmp_path):
        """merge_run goes through a same-directory temp file + os.replace,
        so no partial state (or leftover temp file) survives a merge."""
        path = tmp_path / "BENCH_mcs.json"
        merge_run(path, self._record())
        merge_run(path, self._record())
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_mcs.json"]
        assert len(load_bench(path)["runs"]) == 2

    def test_merge_interrupted_write_preserves_old_document(
        self, tmp_path, monkeypatch
    ):
        """A crash mid-write (simulated at the os.replace boundary) leaves
        the trajectory holding the previous document, schema-valid, with
        no temp-file debris — the append is atomic per record."""
        path = tmp_path / "BENCH_mcs.json"
        first = self._record()
        merge_run(path, first)
        before = path.read_text()

        def _crash(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr("os.replace", _crash)
        with pytest.raises(KeyboardInterrupt):
            merge_run(path, self._record())
        monkeypatch.undo()
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_mcs.json"]
        assert len(load_bench(path)["runs"]) == 1

    def test_merge_rejects_family_mismatch(self, tmp_path):
        path = tmp_path / "BENCH_mcs.json"
        merge_run(path, self._record("mcs"))
        with pytest.raises(ValueError, match="cannot merge"):
            merge_run(path, self._record("oneshot"))

    def test_load_rejects_future_version(self, tmp_path):
        path = tmp_path / "BENCH_mcs.json"
        merge_run(path, self._record())
        data = json.loads(path.read_text())
        data["version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="unsupported"):
            load_bench(path)

    def test_run_record_builder_validates(self):
        with pytest.raises(ValueError):
            run_record(
                bench="mcs",
                label="x",
                solver="ptas",
                scenario={},
                metrics={},  # missing required metrics
                wall_clock_s=0.0,
            )


@pytest.mark.bench_smoke
class TestBenchCli:
    def test_quick_matrix_emits_schema_valid_bench_files(self, tmp_path, capsys):
        assert main(["bench", "--quick", "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "appended 3 oneshot runs" in out
        assert "appended 3 mcs runs" in out
        for family, required in (
            ("oneshot", ("weight", "solver_wall_clock_s", "sets_evaluated")),
            ("mcs", ("slots_to_completion", "solver_wall_clock_s", "sets_evaluated")),
        ):
            data = load_bench(tmp_path / f"BENCH_{family}.json")
            assert len(data["runs"]) >= 3
            labels = {r["label"] for r in data["runs"]}
            assert len(labels) >= 3  # at least 3 distinct scenario points
            for run in data["runs"]:
                for metric in required:
                    assert metric in run["metrics"], (family, metric)

    def test_bench_appends_across_invocations(self, tmp_path, capsys):
        assert main(["bench", "--quick", "--out-dir", str(tmp_path)]) == 0
        assert main(["bench", "--quick", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        data = load_bench(tmp_path / "BENCH_mcs.json")
        assert len(data["runs"]) == 6

    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        assert main(["bench", "--quick", "--dry-run", "--out-dir", str(tmp_path)]) == 0
        assert "dry run" in capsys.readouterr().out
        assert not list(tmp_path.iterdir())

    def test_pinned_seeds_reproduce_work_counters(self):
        a = run_mcs_bench(QUICK_MATRIX[0])
        b = run_mcs_bench(QUICK_MATRIX[0])
        for key in ("slots_to_completion", "sets_evaluated", "tags_per_slot",
                    "rrc_blocked", "rtc_silenced"):
            assert a["metrics"][key] == b["metrics"][key]


class TestBenchMeasurement:
    """Every bench family records its memory peaks from an untimed pass:
    the wall clock never runs while tracemalloc is tracing."""

    @pytest.fixture
    def timed_calls(self, monkeypatch):
        """Solver calls (and the scale tier's lockstep GHC climbs) made
        while a bench wall clock runs, each asserting that tracemalloc is
        off.  ``repro.obs.bench`` reads the clock once
        at the start and once at the end of a timed pass, so a shim that
        flips a flag on every read knows when the wall is running."""
        import functools
        import time
        import tracemalloc

        from repro.core import oneshot
        from repro.obs import bench
        from repro.shard import runtime

        running = [False]
        calls = []

        class Clock:
            @staticmethod
            def perf_counter():
                running[0] = not running[0]
                return time.perf_counter()

        real_get_solver = oneshot.get_solver

        def probed(name, fn):
            @functools.wraps(fn)
            def timed(*args, **kw):
                if running[0]:
                    assert not tracemalloc.is_tracing(), (
                        "bench wall timed under tracemalloc"
                    )
                    calls.append(name)
                return fn(*args, **kw)

            return timed

        def get_solver(name, **kwargs):
            return probed(name, real_get_solver(name, **kwargs))

        monkeypatch.setattr(bench, "time", Clock)
        monkeypatch.setattr(oneshot, "get_solver", get_solver)
        # the scale tier climbs its GHC cells in lockstep, not through the
        # registry solver
        monkeypatch.setattr(
            runtime, "climb_cells", probed("ghc", runtime.climb_cells)
        )
        return calls

    def test_walls_never_timed_under_tracemalloc(self, timed_calls):
        from repro.shard.bench import ScalePoint, run_scale_point

        point = QUICK_MATRIX[0]
        records = [run_oneshot_bench(point), run_mcs_bench(point)]
        records.append(run_scale_point(ScalePoint(
            label="walls", solver="ghc", driver="array",
            num_readers=60, num_tags=600, side=200.0,
            lambda_interference=10.0, lambda_interrogation=5.0, seed=5,
            shard_cells=16,
        )))
        assert {"ptas", "ghc"} <= set(timed_calls)
        for record in records:
            assert record["metrics"]["peak_tracemalloc_kb"] > 0.0
