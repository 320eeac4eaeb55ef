"""Runtime observability: trace events, aggregation, benchmark export.

The obs layer is the repository's telemetry backbone (see
``docs/observability.md`` for the full contract):

* :mod:`repro.obs.events` — typed trace events plus a process-wide
  :class:`~repro.obs.events.Recorder` whose default is a null object, so
  instrumented hot paths cost one attribute check when tracing is off;
* :mod:`repro.obs.collectors` — :class:`~repro.obs.collectors.RunCollector`
  aggregates an event stream into per-run counters, timers and per-slot
  series;
* :mod:`repro.obs.spans` — hierarchical :func:`~repro.obs.spans.span`
  tracing (``mcs.run`` → ``mcs.slot`` → stage → ``solver.call``) over the
  same recorder;
* :mod:`repro.obs.relay` — the cross-process trace relay: forked workers
  buffer their events and ship them back on result payloads, where the
  parent rebases span ids and re-parents them under the dispatching span;
* :mod:`repro.obs.metrics` — counters, gauges and deterministic
  log-bucketed histograms (exact p50/p90/p99 from retained samples), fed
  into BENCH records as the advisory ``histograms`` metric field;
* :mod:`repro.obs.sink` — the bounded-buffer JSONL streaming sink and the
  Chrome trace-event / Perfetto exporter behind ``rfid-sched trace``;
* :mod:`repro.obs.report` — the live ``--progress`` status line and the
  ``rfid-sched report --trace`` renderer (slot timeline, per-cell solve
  heatmap, pool health, fault counts) in text or self-contained HTML;
* :mod:`repro.obs.export` — the versioned BENCH JSON schema and the merge
  tool that appends runs to ``BENCH_oneshot.json`` / ``BENCH_mcs.json``;
* :mod:`repro.obs.bench` — the pinned-seed scenario matrix behind the
  ``rfid-sched bench`` subcommand;
* :mod:`repro.obs.compare` — the trajectory auditor behind
  ``rfid-sched bench compare`` (work-counter drift gate).

Like :mod:`repro.util`, this package sits below everything else: it imports
only the standard library (and :mod:`repro.util` for timing), so any layer —
core, linklayer, distsim, experiments — may emit events without creating
dependency cycles.
"""

from repro.obs.collectors import RunCollector
from repro.obs.events import (
    EVENT_TYPES,
    NULL_RECORDER,
    CandidateEvaluation,
    CollisionTally,
    DistsimRound,
    LinkLayerSession,
    NullRecorder,
    PoolDispatch,
    ReaderFailed,
    ReadMissed,
    Recorder,
    RelayClipped,
    ScheduleDegraded,
    ScheduleDone,
    SlotEnd,
    SlotStart,
    SolverCall,
    SolverDeadline,
    SpanEnd,
    SpanStart,
    SweepPoint,
    TraceRecorder,
    get_recorder,
    recording,
    set_recorder,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)
from repro.obs.relay import (
    RELAY_MAX_EVENTS,
    RelayRecorder,
    capture_relay,
    relay_payload,
    relayed_from,
    replay_events,
)
from repro.obs.report import (
    ProgressLine,
    render_report,
    render_report_html,
    revive_event,
    write_report,
)
from repro.obs.compare import WORK_COUNTERS, audit_against, audit_trajectory, run_compare
from repro.obs.export import (
    BENCH_FORMAT,
    METRIC_FIELDS,
    RUN_FIELDS,
    SCHEMA_VERSION,
    load_bench,
    merge_run,
    run_record,
    validate_bench,
    validate_run,
)
from repro.obs.sink import (
    JsonlSink,
    TeeRecorder,
    chrome_trace,
    event_to_dict,
    load_jsonl,
    write_chrome_trace,
)
from repro.obs.spans import SPAN_NAMES, current_span_id, reset_spans, span

__all__ = [
    "EVENT_TYPES",
    "SlotStart",
    "SlotEnd",
    "SolverCall",
    "CandidateEvaluation",
    "CollisionTally",
    "LinkLayerSession",
    "DistsimRound",
    "ScheduleDone",
    "ReaderFailed",
    "ReadMissed",
    "SolverDeadline",
    "ScheduleDegraded",
    "PoolDispatch",
    "RelayClipped",
    "SweepPoint",
    "SpanStart",
    "SpanEnd",
    "span",
    "SPAN_NAMES",
    "current_span_id",
    "reset_spans",
    "JsonlSink",
    "TeeRecorder",
    "event_to_dict",
    "load_jsonl",
    "chrome_trace",
    "write_chrome_trace",
    "WORK_COUNTERS",
    "audit_trajectory",
    "audit_against",
    "run_compare",
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "TraceRecorder",
    "get_recorder",
    "set_recorder",
    "recording",
    "RunCollector",
    "SCHEMA_VERSION",
    "BENCH_FORMAT",
    "METRIC_FIELDS",
    "RUN_FIELDS",
    "run_record",
    "validate_run",
    "validate_bench",
    "merge_run",
    "load_bench",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "percentile",
    "RELAY_MAX_EVENTS",
    "RelayRecorder",
    "capture_relay",
    "relay_payload",
    "relayed_from",
    "replay_events",
    "ProgressLine",
    "render_report",
    "render_report_html",
    "revive_event",
    "write_report",
]
