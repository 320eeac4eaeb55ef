"""Tests for the cross-process trace relay, the metrics histograms, the
run reporter and the ``--progress`` / ``report --trace`` CLI surface."""

import io
import json
import os
import time

import numpy as np
import pytest

from repro.cli import main
from repro.core import get_solver, greedy_covering_schedule
from repro.deployment import Scenario
from repro.faults import FaultPlan
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ProgressLine,
    RelayClipped,
    RelayRecorder,
    RunCollector,
    SlotEnd,
    SolverCall,
    SpanEnd,
    SpanStart,
    TraceRecorder,
    capture_relay,
    chrome_trace,
    current_span_id,
    load_jsonl,
    percentile,
    recording,
    relay_payload,
    relayed_from,
    render_report,
    render_report_html,
    replay_events,
    reset_spans,
    revive_event,
    run_record,
    span,
    validate_run,
    write_report,
)
from repro.obs.sink import JsonlSink, event_to_dict
from repro.perf.parallel import fork_available
from repro.perf.pool import WorkerPool
from repro.shard.spec import ShardSpec

SMALL = Scenario(
    num_readers=10,
    num_tags=80,
    side=40.0,
    lambda_interference=8,
    lambda_interrogation=5,
    seed=7,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="requires the fork start method"
)


@pytest.fixture(scope="module")
def system():
    return SMALL.build()


def _trace_schedule(system, **kwargs):
    reset_spans()
    with recording(TraceRecorder()) as rec:
        schedule = greedy_covering_schedule(
            system, get_solver("ghc"), seed=9, **kwargs
        )
    return rec.events, schedule


def _span_names(events):
    return {e.span_id: e.name for e in events if isinstance(e, SpanStart)}


def _edges(events):
    names = _span_names(events)
    return {
        (names.get(e.parent_id), e.name)
        for e in events
        if isinstance(e, SpanStart)
    }


def _assert_balanced(events):
    depth = 0
    for e in events:
        if isinstance(e, SpanStart):
            depth += 1
        elif isinstance(e, SpanEnd):
            depth -= 1
            assert depth >= 0
    assert depth == 0


# ----------------------------------------------------------------------
# metrics


class TestPercentile:
    def test_matches_numpy_default(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 5, 100):
            samples = rng.uniform(-10, 10, size=n).tolist()
            for q in (0, 10, 50, 90, 99, 100, 37.5):
                assert percentile(samples, q) == pytest.approx(
                    float(np.percentile(samples, q)), abs=1e-12
                )

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([1.0], -1)

    def test_latency_stats_route_through_metrics(self, system):
        """experiments.analysis quantiles equal np.percentile exactly."""
        from repro.experiments.analysis import LatencyStats, tag_read_slots

        _, schedule = _trace_schedule(system)
        stats = LatencyStats.from_schedule(schedule)
        slots = sorted(tag_read_slots(schedule).values())
        assert stats.median == pytest.approx(float(np.percentile(slots, 50)))
        assert stats.p90 == pytest.approx(float(np.percentile(slots, 90)))
        assert stats.p99 == pytest.approx(float(np.percentile(slots, 99)))
        assert stats.count == len(slots)


class TestHistogram:
    def test_power_of_two_buckets_are_exact(self):
        h = Histogram()
        for v in (1.0, 1.5, 2.0, 0.75, 0.0, -3.0):
            h.observe(v)
        # 2**(e-1) <= v < 2**e: 1.0/1.5 -> e=1, 2.0 -> e=2, 0.75 -> e=0
        assert h.buckets == {1: 2, 2: 1, 0: 1, Histogram.ZERO_BUCKET: 2}
        assert h.count == 6

    def test_summary_shape_and_quantiles(self):
        h = Histogram()
        for v in range(1, 101):
            h.observe(float(v))
        s = h.summary()
        assert s["count"] == 100 and s["min"] == 1.0 and s["max"] == 100.0
        assert s["sum"] == pytest.approx(5050.0)
        assert s["p50"] == pytest.approx(float(np.percentile(range(1, 101), 50)))
        assert s["p90"] == pytest.approx(float(np.percentile(range(1, 101), 90)))
        assert s["p99"] == pytest.approx(float(np.percentile(range(1, 101), 99)))

    def test_empty_histogram_summary_raises(self):
        with pytest.raises(ValueError):
            Histogram().summary()

    def test_counter_and_gauge(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)
        g = Gauge()
        g.set(7.5)
        assert g.value == 7.5

    def test_registry_create_on_first_use_and_omit_empty(self):
        reg = MetricsRegistry()
        h = reg.histogram("a")
        assert reg.histogram("a") is h
        reg.histogram("empty")
        h.observe(2.0)
        summaries = reg.histogram_summaries()
        assert list(summaries) == ["a"]
        reg.counter("n").inc(3)
        assert reg.counter_values() == {"n": 3}


# ----------------------------------------------------------------------
# relay


class TestRelayRecorder:
    def test_bounded_buffer_counts_overflow(self):
        rec = RelayRecorder(max_events=3)
        for i in range(5):
            rec.emit(RelayClipped(dropped_events=i))
        assert len(rec.events) == 3
        assert rec.dropped_events == 2
        events, dropped, pid = relay_payload(rec)
        assert len(events) == 3 and dropped == 2 and pid == os.getpid()

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            RelayRecorder(max_events=0)


class TestReplay:
    def _worker_events(self):
        """A worker-side payload: a root span with one child and an event."""
        return (
            SpanStart(span_id=101, parent_id=None, name="mcs.solve", t=10.0),
            SpanStart(span_id=102, parent_id=101, name="solver.call", t=10.5),
            SolverCall(
                solver="ghc", seconds=0.1, weight=3, active_readers=2,
                feasible=True,
            ),
            SpanEnd(span_id=102, name="solver.call", t=11.0, seconds=0.5),
            SpanEnd(span_id=101, name="mcs.solve", t=11.5, seconds=1.5),
        )

    def test_rebases_and_reparents_under_open_span(self):
        reset_spans()
        payload = (self._worker_events(), 0, os.getpid() + 1)
        with recording(TraceRecorder()) as rec:
            with span("pool.dispatch"):
                owner = current_span_id()
                assert replay_events(payload, rec) == 0
        starts = [e for e in rec.events if isinstance(e, SpanStart)]
        by_name = {e.name: e for e in starts}
        # worker root hangs under the open pool.dispatch span...
        assert by_name["mcs.solve"].parent_id == owner
        # ...internal structure is preserved on fresh ids
        assert by_name["solver.call"].parent_id == by_name["mcs.solve"].span_id
        assert {e.span_id for e in starts}.isdisjoint({101, 102})
        # foreign pid is stamped on every relayed span
        assert dict(by_name["mcs.solve"].attrs)["relay_pid"] == os.getpid() + 1
        assert not any(isinstance(e, RelayClipped) for e in rec.events)
        _assert_balanced(rec.events)

    def test_same_pid_payload_gets_no_pid_attr(self):
        reset_spans()
        payload = (self._worker_events(), 0, os.getpid())
        with recording(TraceRecorder()) as rec:
            with span("pool.dispatch"):
                replay_events(payload, rec)
        attrs = dict(
            next(
                e for e in rec.events
                if isinstance(e, SpanStart) and e.name == "mcs.solve"
            ).attrs
        )
        assert "relay_pid" not in attrs

    def test_clipped_end_is_synthesised_and_balanced(self):
        reset_spans()
        events = self._worker_events()[:3]  # both ends clipped off
        payload = (events, 4, os.getpid())
        with recording(TraceRecorder()) as rec:
            with span("pool.dispatch"):
                assert replay_events(payload, rec) == 4
        ends = [e for e in rec.events if isinstance(e, SpanEnd)]
        assert {e.name for e in ends} >= {"mcs.solve", "solver.call"}
        _assert_balanced(rec.events)
        clipped = [e for e in rec.events if isinstance(e, RelayClipped)]
        assert len(clipped) == 1 and clipped[0].dropped_events == 4
        assert relayed_from(rec) == 4

    def test_end_without_start_counts_as_dropped(self):
        reset_spans()
        payload = (
            (SpanEnd(span_id=9, name="solver.call", t=1.0, seconds=0.5),),
            0,
            os.getpid(),
        )
        with recording(TraceRecorder()) as rec:
            with span("pool.dispatch"):
                assert replay_events(payload, rec) == 1
        assert relayed_from(rec) == 1

    def test_none_payload_is_a_noop(self):
        with recording(TraceRecorder()) as rec:
            assert replay_events(None, rec) == 0
        assert rec.events == []

    def test_capture_relay_wraps_callable(self):
        def fn(x):
            from repro.obs.events import get_recorder

            get_recorder().emit(RelayClipped(dropped_events=x))
            return x * 2

        result, payload = capture_relay(fn, 21)
        assert result == 42
        events, dropped, pid = payload
        assert events == (RelayClipped(dropped_events=21),)
        assert dropped == 0 and pid == os.getpid()


def _emit_traced(x):
    """Module-level worker fn: emits one solver.call span + event."""
    with span("solver.call", solver="stub"):
        from repro.obs.events import get_recorder

        rec = get_recorder()
        if rec.enabled:
            rec.emit(
                SolverCall(
                    solver="stub", seconds=0.0, weight=x, active_readers=1,
                    feasible=True,
                )
            )
    return 2 * x


class _BoobyTrap:
    """Disabled recorder that explodes if any instrument emits anyway."""

    enabled = False

    def emit(self, event):  # pragma: no cover - the trap
        raise AssertionError(f"emit while disabled: {event!r}")


@needs_fork
class TestForkMapRelay:
    """The per-task relay of a map on forked pool workers."""

    def test_worker_spans_relayed_under_pool_dispatch(self):
        reset_spans()
        with recording(TraceRecorder()) as rec, WorkerPool(2) as pool:
            results = pool.map(_emit_traced, [1, 2, 3])
        assert results == [2, 4, 6]
        names = _span_names(rec.events)
        calls = [
            e for e in rec.events
            if isinstance(e, SpanStart) and e.name == "solver.call"
        ]
        assert len(calls) == 3
        for e in calls:
            assert names[e.parent_id] == "pool.dispatch"
            assert dict(e.attrs)["relay_pid"] != os.getpid()
        solver_events = [e for e in rec.events if isinstance(e, SolverCall)]
        assert sorted(e.weight for e in solver_events) == [1, 2, 3]
        _assert_balanced(rec.events)

    def test_relay_off_with_recorder_disabled(self):
        from repro.obs.events import recording as rec_ctx

        with rec_ctx(_BoobyTrap()), WorkerPool(2) as pool:
            assert pool.map(_emit_traced, [1, 2, 3]) == [2, 4, 6]


class TestShardRelay:
    def test_serial_cell_solves_nest_under_shard_solve(self, system):
        events, _ = _trace_schedule(system, shard=ShardSpec(cells=4))
        edges = _edges(events)
        assert ("mcs.solve", "shard.solve") in edges
        assert ("shard.solve", "solver.call") in edges
        cells = {
            dict(e.attrs).get("cell")
            for e in events
            if isinstance(e, SpanStart) and e.name == "shard.solve"
        }
        assert cells and None not in cells
        assert not any(
            "relay_pid" in dict(e.attrs)
            for e in events
            if isinstance(e, SpanStart)
        )
        _assert_balanced(events)

    def test_serial_cell_solve_spans_time_the_solve(self, system):
        """In process, each ``shard.solve`` span encloses its cell's
        ``solver.call`` in time, and ``cell_solve_s`` sums the spans."""
        events, _ = _trace_schedule(system, shard=ShardSpec(cells=4))
        starts = {e.span_id: e for e in events if isinstance(e, SpanStart)}
        ends = {e.span_id: e for e in events if isinstance(e, SpanEnd)}
        solves = [i for i, e in starts.items() if e.name == "shard.solve"]
        calls = [
            i for i, e in starts.items()
            if e.name == "solver.call" and e.parent_id in solves
        ]
        assert solves and len(calls) == len(solves)
        for i in calls:
            outer = starts[i].parent_id
            assert starts[outer].t <= starts[i].t
            assert ends[i].t <= ends[outer].t
        collector = RunCollector()
        for e in events:
            collector.emit(e)
        hist = collector.summary()["histograms"]["cell_solve_s"]
        assert hist["count"] == len(solves)
        assert hist["sum"] == pytest.approx(
            sum(ends[i].seconds for i in solves)
        )

    @needs_fork
    def test_pooled_cell_solves_nest_under_pool_dispatch(self, system):
        """On the pool, every ``shard.solve`` is a relayed child of
        ``pool.dispatch`` stamped with its worker's pid."""
        events, _ = _trace_schedule(
            system, shard=ShardSpec(cells=4, workers=2)
        )
        names = _span_names(events)
        solves = [
            e for e in events
            if isinstance(e, SpanStart) and e.name == "shard.solve"
        ]
        assert solves
        for e in solves:
            assert names[e.parent_id] == "pool.dispatch"
            assert dict(e.attrs)["relay_pid"] != os.getpid()
            assert "cell" in dict(e.attrs)
        _assert_balanced(events)

    def test_forkless_cell_solves_nest_under_mcs_solve(
        self, system, monkeypatch
    ):
        """Fork-less platforms solve the cells in process, so the span
        tree is exactly a serial run's: ``shard.solve`` under
        ``mcs.solve``, and no ``pool.dispatch`` at all."""
        from repro.perf import parallel as parallel_module
        from repro.perf import pool as pool_module

        monkeypatch.setattr(pool_module, "fork_available", lambda: False)
        monkeypatch.setattr(parallel_module, "_NO_FORK_WARNED", True)
        events, schedule = _trace_schedule(
            system, shard=ShardSpec(cells=4, workers=2)
        )
        serial_events, serial = _trace_schedule(
            system, shard=ShardSpec(cells=4)
        )
        assert schedule.reads_per_slot() == serial.reads_per_slot()
        assert _edges(events) == _edges(serial_events)
        names = _span_names(events)
        starts = [e for e in events if isinstance(e, SpanStart)]
        solves = [e for e in starts if e.name == "shard.solve"]
        assert solves
        assert {names[e.parent_id] for e in solves} == {"mcs.solve"}
        assert "pool.dispatch" not in names.values()
        _assert_balanced(events)
        assert current_span_id() is None

    @needs_fork
    def test_worker_cell_solves_carry_pids_and_lanes(self, system):
        events, schedule = _trace_schedule(
            system, shard=ShardSpec(cells=4, workers=2)
        )
        _, serial = _trace_schedule(system, shard=ShardSpec(cells=4))
        assert schedule.reads_per_slot() == serial.reads_per_slot()
        edges = _edges(events)
        assert ("shard.solve", "solver.call") in edges
        pids = {
            dict(e.attrs).get("relay_pid")
            for e in events
            if isinstance(e, SpanStart) and e.name == "solver.call"
        }
        assert pids and None not in pids and os.getpid() not in pids
        _assert_balanced(events)
        # the Chrome exporter draws relayed spans on their own lanes
        doc = chrome_trace(events)
        lanes = {
            x["tid"] for x in doc["traceEvents"]
            if x["ph"] == "B" and x["name"] == "solver.call"
        }
        assert len(lanes) >= 1 and 1 not in lanes
        meta = {
            x["args"]["name"]
            for x in doc["traceEvents"]
            if x["ph"] == "M" and x["name"] == "thread_name"
        }
        assert "main" in meta
        assert any(name.startswith("worker pid ") for name in meta)
        # every E pairs with its B's lane
        lane_of = {}
        for x in doc["traceEvents"]:
            if x["ph"] == "B":
                lane_of[x["args"]["span_id"]] = x["tid"]
            elif x["ph"] == "E":
                assert x["tid"] == lane_of[x["args"]["span_id"]]

    def test_shard_fault_composition_span_tree(self, system):
        """Composed shard x faults keeps a coherent tree: per-cell solves
        under shard.solve, fault events attributed to the open slot."""
        plan = FaultPlan.uniform_flaky(
            system.num_readers, p_fail=0.2, miss_rate=0.2, seed=1
        )
        events, schedule = _trace_schedule(
            system, faults=plan, shard=ShardSpec(cells=4)
        )
        assert schedule.complete
        edges = _edges(events)
        assert ("mcs.solve", "shard.solve") in edges
        assert ("shard.solve", "solver.call") in edges
        stack, attribution = [], {}
        for e in events:
            if isinstance(e, SpanStart):
                stack.append(e.name)
            elif isinstance(e, SpanEnd):
                stack.pop()
            else:
                attribution.setdefault(type(e).__name__, set()).add(
                    stack[-1] if stack else None
                )
        assert attribution["ReadMissed"] == {"mcs.slot"}
        assert attribution["SlotEnd"] == {"mcs.slot"}
        _assert_balanced(events)

    def test_refresh_nests_under_solve_stage(self, system):
        from repro.faults.plan import PermanentCrash

        plan = FaultPlan(
            reader_faults=(PermanentCrash(reader=2, at_slot=0),),
            miss_rate=0.3,
            seed=11,
        )
        events, _ = _trace_schedule(
            system, faults=plan, shard=ShardSpec(cells=4)
        )
        assert ("mcs.solve", "shard.refresh") in _edges(events)
        _assert_balanced(events)


# ----------------------------------------------------------------------
# sink streaming


class TestJsonlFlushInterval:
    def test_zero_interval_streams_every_event(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        sink = JsonlSink(path, buffer_events=256, flush_interval_s=0)
        sink.emit(SlotEnd(slot=0, tags_read=5, weight=1, active_readers=2))
        sink.emit(SlotEnd(slot=1, tags_read=3, weight=1, active_readers=2))
        # visible on disk before close: tail -f follows the run live
        assert len(path.read_text().splitlines()) == 2
        sink.close()
        assert len(load_jsonl(path)) == 2

    def test_none_interval_buffers_until_full(self, tmp_path):
        path = tmp_path / "buffered.jsonl"
        sink = JsonlSink(path, buffer_events=256, flush_interval_s=None)
        sink.emit(SlotEnd(slot=0, tags_read=5, weight=1, active_readers=2))
        assert path.read_text() == ""
        sink.close()
        assert len(load_jsonl(path)) == 1

    def test_rejects_negative_interval(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlSink(tmp_path / "x.jsonl", flush_interval_s=-1)


# ----------------------------------------------------------------------
# reporter


class TestProgressLine:
    def test_paints_on_slot_end_and_closes_with_newline(self):
        stream = io.StringIO()
        line = ProgressLine(stream=stream, force=True)
        line.emit(SlotEnd(slot=0, tags_read=12, weight=1, active_readers=3))
        out = stream.getvalue()
        assert out.startswith("\r") and "slot 1" in out and "tags read 12" in out
        line.close()
        assert stream.getvalue().endswith("\n")

    def test_silent_off_tty(self):
        stream = io.StringIO()
        line = ProgressLine(stream=stream)
        line.emit(SlotEnd(slot=0, tags_read=12, weight=1, active_readers=3))
        line.close()
        assert stream.getvalue() == ""


class TestReport:
    def test_revive_round_trips_span_attrs(self):
        start = SpanStart(
            span_id=4, parent_id=2, name="shard.solve", t=1.0,
            attrs=(("cell", 3), ("relay_pid", 77)),
        )
        end = SlotEnd(slot=0, tags_read=5, weight=1, active_readers=2)
        assert revive_event(event_to_dict(start)) == start
        assert revive_event(event_to_dict(end)) == end
        assert revive_event({"event": "NotAnEvent", "x": 1}) is None

    def test_timeline_rows_show_their_own_solve_span(self):
        """One trace holding two schedules back to back: every timeline row
        shows the ``mcs.solve`` span of exactly that slot."""
        reset_spans()
        with recording(TraceRecorder()) as rec:
            for seed in (3, 4):
                system = Scenario(num_readers=40, num_tags=500, seed=seed).build()
                greedy_covering_schedule(system, get_solver("exact"), seed=seed)
        solve_ms = [
            f"{e.seconds * 1e3:8.2f}"
            for e in rec.events
            if isinstance(e, SpanEnd) and e.name == "mcs.solve"
        ]
        rows = [
            line.split("solve ")[1].split(" ms")[0]
            for line in render_report(rec.events).splitlines()
            if line.startswith("  slot ")
        ]
        assert len(rows) == sum(isinstance(e, SlotEnd) for e in rec.events)
        assert rows == solve_ms

    def test_report_sections_for_sharded_run(self, system):
        events, _ = _trace_schedule(system, shard=ShardSpec(cells=4))
        text = render_report(events)
        assert "slot timeline" in text
        assert "per-cell solve heatmap" in text
        assert "histograms (p50 / p90 / p99)" in text
        assert "slot_solve_s" in text and "cell_solve_s" in text
        # dict-shaped events render identically to live objects
        assert render_report([event_to_dict(e) for e in events]) == text

    def test_report_names_lockstep_climbs(self):
        """The scale driver's GHC climbs its cells in lockstep: the heatmap
        reports those climbs on one line instead of per cell."""
        from repro.shard import ScaleDeployment, run_scale_schedule

        reset_spans()
        with recording(TraceRecorder()) as rec:
            result = run_scale_schedule(
                ScaleDeployment(120, 1500, 160.0, seed=7), ShardSpec(cells=16),
                seed=11,
            )
        climbs = sum(
            isinstance(e, SpanStart) and e.name == "shard.solve"
            for e in rec.events
        )
        assert climbs == result.size
        text = render_report(rec.events)
        assert "per-cell solve heatmap" in text
        note = f"lockstep GHC: {climbs} climbs over " + str(
            sum(s.cells_solved for s in result.slots)
        )
        assert note in text
        assert "  cell " not in text
        assert note in render_report_html(rec.events)

    def test_serial_run_omits_shard_and_pool_sections(self, system):
        events, _ = _trace_schedule(system)
        text = render_report(events)
        assert "per-cell solve heatmap" not in text
        assert "pool health" not in text

    def test_html_report_is_self_contained(self, system, tmp_path):
        events, _ = _trace_schedule(system, shard=ShardSpec(cells=4))
        page = render_report_html(events)
        assert page.startswith("<!doctype html>")
        assert "per-cell solve heatmap" in page
        assert "src=" not in page and "href=" not in page
        out = write_report(events, tmp_path / "run.html")
        assert out.read_text() == page


# ----------------------------------------------------------------------
# BENCH integration


class TestBenchHistograms:
    def test_summary_carries_slot_solve_histogram(self, system):
        collector = RunCollector()
        reset_spans()
        with recording(collector):
            greedy_covering_schedule(
                system, get_solver("ghc"), seed=9, shard=ShardSpec(cells=4)
            )
        summary = collector.summary()
        hists = summary["histograms"]
        for name in ("slot_solve_s", "cell_solve_s", "halo_readers"):
            s = hists[name]
            assert s["count"] > 0
            assert s["min"] <= s["p50"] <= s["p90"] <= s["p99"] <= s["max"]
        record = run_record(
            bench="scale",
            label="unit",
            solver="ghc",
            scenario={"seed": 9},
            metrics=summary,
            wall_clock_s=0.0,
        )
        validate_run(record)  # histograms is a declared metric field

    def test_plain_run_has_no_fault_ladder_histogram(self, system):
        collector = RunCollector()
        with recording(collector):
            greedy_covering_schedule(system, get_solver("ghc"), seed=9)
        hists = collector.summary()["histograms"]
        assert "fault_ladder_depth" not in hists
        assert "slot_solve_s" in hists


# ----------------------------------------------------------------------
# CLI


class TestCellSolveHistogram:
    def test_times_the_cell_solve_not_the_replay(self, system):
        ghc = get_solver("ghc")

        def sleepy(system, unread=None, seed=None):
            time.sleep(0.02)
            return ghc(system, unread, seed)

        collector = RunCollector()
        with recording(collector):
            greedy_covering_schedule(
                system, sleepy, seed=9, shard=ShardSpec(cells=4, workers=1)
            )
        hist = collector.summary()["histograms"]["cell_solve_s"]
        assert hist["count"] >= 2
        assert hist["p50"] >= 0.02


class TestReportCli:
    def test_trace_run_workers_requires_shard_cells(self, tmp_path, capsys):
        assert main([
            "trace", "run", "--quick", "--workers", "2",
            "--out", str(tmp_path / "t.json"),
        ]) == 2
        assert "--shard-cells" in capsys.readouterr().err

    def test_report_renders_streamed_trace(self, tmp_path, capsys):
        jsonl = tmp_path / "t.jsonl"
        assert main([
            "trace", "run", "--quick", "--shard-cells", "4",
            "--out", str(tmp_path / "t.json"), "--jsonl", str(jsonl),
        ]) == 0
        capsys.readouterr()
        assert main(["report", "--trace", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "slot timeline" in out
        assert "per-cell solve heatmap" in out
        html = tmp_path / "run.html"
        assert main([
            "report", "--trace", str(jsonl), "--out", str(html),
        ]) == 0
        assert html.read_text().startswith("<!doctype html>")

    def test_report_missing_trace_errors(self, tmp_path, capsys):
        assert main([
            "report", "--trace", str(tmp_path / "absent.jsonl"),
        ]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    @needs_fork
    def test_trace_run_with_workers_exports_worker_lanes(
        self, tmp_path, capsys
    ):
        out = tmp_path / "t.json"
        assert main([
            "trace", "run", "--quick", "--shard-cells", "4",
            "--workers", "2", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        meta = [
            x for x in doc["traceEvents"]
            if x["ph"] == "M" and x["name"] == "thread_name"
        ]
        assert any(
            x["args"]["name"].startswith("worker pid ") for x in meta
        )
        b = sum(1 for x in doc["traceEvents"] if x["ph"] == "B")
        e = sum(1 for x in doc["traceEvents"] if x["ph"] == "E")
        assert b == e
