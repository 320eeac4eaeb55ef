"""Tests for span tracing: nesting, the JSONL sink, the Chrome exporter
and the ``rfid-sched trace`` CLI."""

import json

import pytest

from repro.cli import main
from repro.core import get_solver, greedy_covering_schedule
from repro.deployment import Scenario
from repro.faults import FaultPlan, PermanentCrash
from repro.obs import (
    SPAN_NAMES,
    JsonlSink,
    RunCollector,
    SpanEnd,
    SpanStart,
    TeeRecorder,
    TraceRecorder,
    chrome_trace,
    current_span_id,
    load_jsonl,
    recording,
    reset_spans,
    span,
    write_chrome_trace,
)
from repro.shard import ScaleDeployment, ShardSpec, run_scale_schedule

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


def _trace(system, solver_name="exact", **kwargs):
    solver_kwargs = kwargs.pop("solver_kwargs", {})
    reset_spans()
    with recording(TraceRecorder()) as rec:
        schedule = greedy_covering_schedule(
            system, get_solver(solver_name, **solver_kwargs), **kwargs
        )
    return rec.events, schedule


def _edges(events):
    """Set of (parent span name or None, child span name) pairs."""
    names = {e.span_id: e.name for e in events if isinstance(e, SpanStart)}
    return {
        (names.get(e.parent_id), e.name)
        for e in events
        if isinstance(e, SpanStart)
    }


class TestSpanTree:
    def test_mcs_run_nests_slot_stage_solver(self, system):
        events, schedule = _trace(system, linklayer="aloha", seed=0)
        edges = _edges(events)
        assert (None, "mcs.run") in edges
        assert ("mcs.run", "mcs.slot") in edges
        assert ("mcs.slot", "mcs.solve") in edges
        assert ("mcs.slot", "mcs.inventory") in edges
        assert ("mcs.slot", "mcs.retire") in edges
        assert ("mcs.solve", "solver.call") in edges
        assert ("mcs.inventory", "linklayer.session") in edges
        starts = [e for e in events if isinstance(e, SpanStart)]
        assert sum(e.name == "mcs.slot" for e in starts) == schedule.size

    def test_distributed_solver_nests_distsim_run(self, system):
        events, _ = _trace(system, "distributed", seed=0)
        assert ("solver.call", "distsim.run") in _edges(events)

    def test_sweep_run_is_a_root_span(self):
        from repro.experiments.sweep import run_sweep

        reset_spans()
        with recording(TraceRecorder()) as rec:
            run_sweep("x", [1.0, 2.0], lambda v, s: {"m": v + s}, seeds=[0])
        edges = _edges(rec.events)
        assert (None, "sweep.run") in edges
        sweeps = [e for e in rec.events if isinstance(e, SpanStart)]
        assert [e.name for e in sweeps] == ["sweep.run"]
        assert dict(sweeps[0].attrs) == {"param": "x", "points": 2}

    def test_fault_events_fall_inside_their_slot_span(self, system):
        from repro.obs.events import ReadMissed

        plan = FaultPlan.uniform_flaky(
            system.num_readers, 0.0, miss_rate=0.5, seed=5
        )
        events, _ = _trace(
            system, "ghc", linklayer="aloha", seed=0, faults=plan,
            max_slots=4000,
        )
        open_spans = []
        names = {e.span_id: e.name for e in events if isinstance(e, SpanStart)}
        saw_missed = False
        for event in events:
            if isinstance(event, SpanStart):
                open_spans.append(event.span_id)
            elif isinstance(event, SpanEnd):
                open_spans.pop()
            elif isinstance(event, ReadMissed):
                saw_missed = True
                assert "mcs.slot" in {names[s] for s in open_spans}
        assert saw_missed

    def test_every_start_has_matching_end(self, system):
        events, _ = _trace(system, seed=0)
        starts = {e.span_id for e in events if isinstance(e, SpanStart)}
        ends = {e.span_id for e in events if isinstance(e, SpanEnd)}
        assert starts == ends
        assert all(
            e.seconds >= 0.0 for e in events if isinstance(e, SpanEnd)
        )

    def test_all_emitted_names_are_in_taxonomy(self, system):
        events, _ = _trace(system, "distributed", linklayer="aloha", seed=0)
        emitted = {e.name for e in events if isinstance(e, SpanStart)}
        assert emitted <= set(SPAN_NAMES)

    def test_stack_helpers(self):
        reset_spans()
        assert current_span_id() is None
        with recording(TraceRecorder()):
            with span("mcs.run"):
                outer = current_span_id()
                assert outer is not None
                with span("mcs.slot", slot=0):
                    assert current_span_id() != outer
                assert current_span_id() == outer
        assert current_span_id() is None

    def test_spans_off_allocates_no_ids(self):
        reset_spans()
        with span("mcs.run"):
            assert current_span_id() is None  # null recorder: no id, no stack
        with recording(TraceRecorder()) as rec:
            with span("mcs.run"):
                assert current_span_id() == 1  # counter untouched by the above
        assert rec.events[0].span_id == 1


#: Array-first deployment for the driver-parity span checks.
SCALE = ScaleDeployment(num_readers=120, num_tags=1500, side=160.0, seed=7)


def _run_dense(**kwargs):
    system = Scenario(num_readers=60, num_tags=600, side=200.0, seed=5).build()
    return greedy_covering_schedule(
        system, get_solver("ghc"), seed=9, shard=ShardSpec(cells=16), **kwargs
    )


def _run_scale(**kwargs):
    return run_scale_schedule(SCALE, ShardSpec(cells=16), seed=11, **kwargs)


#: A permanent crash each driver's heartbeat confirms, forcing a refresh.
CRASHES = {
    "dense": FaultPlan(reader_faults=(PermanentCrash(2, 0),), seed=11),
    "scale": FaultPlan(reader_faults=(PermanentCrash(3, 2),), seed=3),
}


class TestDriverSpanParity:
    """Both drivers run the same slot loop, so both emit the same
    ``mcs.*`` span tree and stage timings."""

    DRIVERS = {"dense": _run_dense, "scale": _run_scale}

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_slot_loop_span_tree(self, driver):
        reset_spans()
        with recording(TraceRecorder()) as rec:
            self.DRIVERS[driver]()
        edges = _edges(rec.events)
        assert (None, "mcs.run") in edges
        assert ("mcs.run", "mcs.slot") in edges
        assert ("mcs.slot", "mcs.solve") in edges
        assert ("mcs.slot", "mcs.retire") in edges
        assert ("mcs.solve", "shard.solve") in edges
        assert ("shard.solve", "solver.call") in edges

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_refresh_nests_under_solve_stage(self, driver):
        reset_spans()
        with recording(TraceRecorder()) as rec:
            self.DRIVERS[driver](faults=CRASHES[driver])
        assert ("mcs.solve", "shard.refresh") in _edges(rec.events)

    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_stage_timings_reach_the_collector(self, driver):
        with recording(RunCollector()) as collector:
            self.DRIVERS[driver]()
        stages = collector.summary()["stage_seconds_by_name"]
        assert {"mcs.solve", "mcs.retire", "partition.build"} <= set(stages)


class TestSpanDerivedTimings:
    def test_collector_timings_are_span_sums(self):
        """Stage seconds and the two span histograms are exactly the
        ``SpanEnd`` durations of a pooled, link-layer sharded run."""
        system = Scenario(num_readers=60, num_tags=600, side=200.0, seed=5).build()
        collector, trace = RunCollector(), TraceRecorder()
        reset_spans()
        with recording(TeeRecorder(collector, trace)):
            greedy_covering_schedule(
                system, get_solver("ghc"), seed=9, linklayer="aloha",
                shard=ShardSpec(cells=16, workers=2),
            )
        ends = {}
        for e in trace.events:
            if isinstance(e, SpanEnd):
                ends.setdefault(e.name, []).append(e.seconds)
        assert {"mcs.solve", "mcs.inventory", "pool.dispatch"} <= set(ends)
        summary = collector.summary()
        stages = summary["stage_seconds_by_name"]
        assert set(stages) == set(ends)
        for name, seconds in ends.items():
            assert stages[name] == pytest.approx(sum(seconds))
        hists = summary["histograms"]
        assert hists["slot_solve_s"]["count"] == len(ends["mcs.solve"])
        assert hists["pool_dispatch_s"]["sum"] == pytest.approx(
            sum(ends["pool.dispatch"])
        )


class TestChromeTrace:
    def test_b_e_pairs_balance_and_nest(self, system):
        events, _ = _trace(system, linklayer="aloha", seed=0)
        doc = chrome_trace(events)
        depth = 0
        b = e = 0
        for entry in doc["traceEvents"]:
            if entry["ph"] == "B":
                depth += 1
                b += 1
            elif entry["ph"] == "E":
                depth -= 1
                e += 1
                assert depth >= 0
        assert depth == 0 and b == e > 0

    def test_instants_carry_their_enclosing_span(self, system):
        events, _ = _trace(system, linklayer="aloha", seed=0)
        doc = chrome_trace(events)
        instants = [x for x in doc["traceEvents"] if x["ph"] == "i"]
        assert instants
        assert any(x["name"] == "LinkLayerSession" for x in instants)
        for x in instants:
            assert x["args"]["span"] in SPAN_NAMES

    def test_timestamps_are_relative_microseconds(self, system):
        events, _ = _trace(system, seed=0)
        doc = chrome_trace(events)
        ts = [x["ts"] for x in doc["traceEvents"]]
        assert min(ts) == 0.0

    def test_write_round_trip(self, system, tmp_path):
        events, _ = _trace(system, seed=0)
        out = tmp_path / "trace.json"
        write_chrome_trace(events, out)
        doc = json.loads(out.read_text())
        assert doc["traceEvents"] == chrome_trace(events)["traceEvents"]


class TestJsonlSink:
    def test_stream_matches_in_memory_recorder(self, system, tmp_path):
        path = tmp_path / "events.jsonl"
        rec = TraceRecorder()
        reset_spans()
        sink = JsonlSink(path, buffer_events=4)
        with recording(TeeRecorder(rec, sink)):
            greedy_covering_schedule(
                system, get_solver("exact"), linklayer="aloha", seed=0
            )
        sink.close()
        rows = load_jsonl(path)
        assert sink.events_written == len(rec.events) == len(rows)
        assert rows[0]["event"] == type(rec.events[0]).__name__
        # the offline conversion equals the in-memory one
        assert (
            chrome_trace(rows)["traceEvents"]
            == chrome_trace(rec.events)["traceEvents"]
        )

    def test_sink_context_manager_flushes(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(path, buffer_events=1000) as sink:
            with recording(sink):
                with span("mcs.run"):
                    pass
        assert len(load_jsonl(path)) == 2

    def test_sink_rejects_nonpositive_buffer(self, tmp_path):
        with pytest.raises(ValueError, match="buffer_events"):
            JsonlSink(tmp_path / "x.jsonl", buffer_events=0)

    def test_tee_skips_disabled_children(self):
        from repro.obs import NULL_RECORDER

        rec = TraceRecorder()
        tee = TeeRecorder(NULL_RECORDER, rec)
        assert tee.enabled
        with recording(tee):
            with span("mcs.run"):
                pass
        assert len(rec.events) == 2
        assert not TeeRecorder(NULL_RECORDER).enabled


class TestTraceCli:
    def test_trace_run_quick_writes_valid_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "run", "--quick", "--out", str(out)]) == 0
        assert "traced q_sparse_r12t100" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        names = {x["name"] for x in doc["traceEvents"] if x["ph"] == "B"}
        assert {"mcs.run", "mcs.slot", "mcs.solve", "solver.call"} <= names
        assert names <= set(SPAN_NAMES)

    def test_trace_run_streams_and_converts(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        conv = tmp_path / "converted.json"
        assert main([
            "trace", "run", "--quick", "--linklayer", "aloha",
            "--out", str(out), "--jsonl", str(jsonl),
        ]) == 0
        assert main(["trace", "convert", str(jsonl), "--out", str(conv)]) == 0
        capsys.readouterr()
        assert (
            json.loads(out.read_text())["traceEvents"]
            == json.loads(conv.read_text())["traceEvents"]
        )

    def test_trace_run_max_events_caps_buffer(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main([
            "trace", "run", "--quick", "--max-events", "5", "--out", str(out),
        ]) == 0
        assert "dropped" in capsys.readouterr().out
        assert len(json.loads(out.read_text())["traceEvents"]) <= 5
