"""BENCH JSON schema and the trajectory merge tool.

A BENCH file (``BENCH_oneshot.json``, ``BENCH_mcs.json``) is the repo's
performance trajectory: every PR appends runs, none rewrites history.  The
schema is therefore versioned and append-only:

* the top level carries ``format`` / ``version`` / ``benchmark`` headers and
  a ``runs`` list;
* each run record carries the scenario, the solver, a ``metrics`` dict
  aggregated by :class:`~repro.obs.collectors.RunCollector`, and provenance
  (library version, schema version).

Compatibility contract: within schema version 1, fields are only ever
*added* to ``metrics``; existing field names and meanings never change.
Readers must ignore unknown metric fields.  A semantic change requires a
version bump, and :func:`load_bench` refuses versions it does not know.

The documented field list in ``docs/observability.md`` is diffed against
:data:`METRIC_FIELDS` / :data:`RUN_FIELDS` by ``tests/test_obs_docs.py``, so
schema and docs cannot drift apart silently.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Union

SCHEMA_VERSION = 1

#: The ``format`` header of every BENCH file.
BENCH_FORMAT = "repro.bench"

PathLike = Union[str, Path]

#: Every field a run record may carry at its top level, with its meaning.
RUN_FIELDS: Dict[str, str] = {
    "bench": "benchmark family, 'oneshot', 'mcs', 'chaos' or 'scale'",
    "label": "human-readable scenario point label",
    "solver": "registry name of the solver under measurement",
    "scenario": "generator parameters: readers, tags, side, lambdas, seed",
    "metrics": "aggregated counters/timers/series (see metric fields)",
    "wall_clock_s": "end-to-end wall-clock of the measured run, seconds",
    "repro_version": "library version that produced the run",
    "schema_version": "BENCH schema version the record conforms to",
    "backend": "historical: kernel backend of runs recorded while 'pure' and 'numpy' both existed",
}

#: ``RUN_FIELDS`` entries a record may omit.  ``backend`` was written only
#: while two kernel backends existed; it stays valid in older records and
#: new records omit it.
OPTIONAL_RUN_FIELDS = ("backend",)

#: Every metric field exporters may emit, with its meaning.
METRIC_FIELDS: Dict[str, str] = {
    "slots": "time-slots executed (MCS driver SlotEnd count)",
    "slots_to_completion": "covering-schedule size (Definition 4)",
    "tags_read": "tags served across the run (sum of SlotEnd.tags_read)",
    "tags_per_slot": "tags served per slot, in slot order",
    "weight": "one-shot weight w(X) of the returned set (Definition 3)",
    "active_readers": "size of the returned one-shot set",
    "feasible": "whether the returned one-shot set is feasible",
    "complete": "whether the covering schedule read every coverable tag",
    "solver_calls": "one-shot solver invocations (SolverCall count)",
    "solver_budget_exhausted": "one-shot solver invocations that reported their search budget cut off (SolverCall.budget_exhausted: meta['budget_exhausted'] of PTAS or exact), sharded cell solves included",
    "solver_wall_clock_s": "total solver wall-clock, seconds",
    "solver_seconds_by_name": "solver wall-clock split by solver name",
    "stage_seconds_by_name": "inclusive wall-clock seconds per span name, summed over SpanEnd events (mcs.solve/mcs.inventory/mcs.retire, pool.dispatch, solver.call, ...)",
    "sets_evaluated": "candidate scheduling sets scored by search routines",
    "sets_per_slot": "candidate sets evaluated while each slot was open",
    "sets_by_context": "sets_evaluated split by search context",
    "rrc_blocked": "unread tags blanked by reader-reader collision",
    "rtc_silenced": "active readers silenced by reader-tag collision",
    "linklayer_micro_slots": "link-layer slot durations summed (parallel max)",
    "linklayer_work": "link-layer micro-slots summed over readers",
    "distsim_rounds": "synchronous message-passing rounds executed",
    "distsim_messages": "messages sent through the distsim engine",
    "distsim_dropped": "messages lost to the engine's loss process",
    "sweep_points": "replicated sweep measurements recorded",
    "readers_failed": "reader suspicion transitions (heartbeat timeouts)",
    "reads_missed": "tag reads lost to the imperfect-read process (retried later)",
    "solver_deadline_misses": "one-shot solves that exceeded their deadline budget",
    "schedule_degradations": "degradation-ladder steps taken by the driver",
    "outcome": "schedule termination status: complete, exhausted or stalled",
    "coverage_fraction": "fraction of coverable tags read before the schedule ended",
    "slowdown": "slots-to-completion ratio versus the fault-free baseline",
    "fault_fail_rate": "per-slot flaky-activation probability injected",
    "fault_miss_rate": "per-read miss probability injected",
    "pool_spawns": "worker pools brought up (persistent pool: 1 per run plus 1 per re-fork; a pool used for one map: 1)",
    "pool_tasks": "payloads shipped through parallel dispatches, summed",
    "pool_payload_bytes": "pickled task bytes shipped to workers, summed over dispatches",
    "pool_respawns": "fresh worker pools forked by the supervisor after a worker death or deadline hit",
    "pool_deadline_hits": "parallel dispatches that exceeded the pool's per-dispatch deadline",
    "relay_dropped_events": "worker-side trace events dropped at the bounded relay buffer cap, summed over dispatches",
    "histograms": "p50/p90/p99 latency/size summaries keyed by histogram name (slot_solve_s, pool_dispatch_s and cell_solve_s from mcs.solve, pool.dispatch and shard.solve span ends, halo_readers, fault_ladder_depth); advisory, never drift-gated",
    "shard_cells": "live spatial cells solved, summed over slots",
    "shard_halo_readers": "advisory halo readers shipped to cell solves, summed over slots",
    "shard_boundary_repairs": "cross-cell RTc conflicts repaired by the merge pass",
    "shard_budget_exhausted": "cell solves whose solver reported its search budget cut off (meta['budget_exhausted'] of PTAS or exact), summed over slots",
    "peak_tracemalloc_kb": "peak Python heap during the measured run (tracemalloc), KiB",
    "peak_rss_kb": "peak resident set size of the process (ru_maxrss, best-effort), KiB",
}

#: Metric fields every run of a given bench family must include.
REQUIRED_METRICS: Dict[str, List[str]] = {
    "oneshot": ["weight", "active_readers", "feasible", "solver_calls",
                "solver_wall_clock_s", "sets_evaluated"],
    "mcs": ["slots_to_completion", "tags_read", "complete", "solver_calls",
            "solver_wall_clock_s", "sets_evaluated", "tags_per_slot"],
    "chaos": ["slots_to_completion", "tags_read", "complete", "outcome",
              "coverage_fraction", "slowdown", "fault_fail_rate",
              "fault_miss_rate"],
    "scale": ["slots", "tags_read", "complete", "solver_calls",
              "solver_wall_clock_s", "tags_per_slot"],
}


def run_record(
    bench: str,
    label: str,
    solver: str,
    scenario: dict,
    metrics: dict,
    wall_clock_s: float,
) -> dict:
    """Assemble one schema-valid run record (validated before return)."""
    from repro import __version__

    record = {
        "bench": bench,
        "label": label,
        "solver": solver,
        "scenario": dict(scenario),
        "metrics": dict(metrics),
        "wall_clock_s": float(wall_clock_s),
        "repro_version": __version__,
        "schema_version": SCHEMA_VERSION,
    }
    validate_run(record)
    return record


def validate_run(record: dict) -> None:
    """Raise ``ValueError`` unless *record* is a schema-valid run record."""
    missing = [
        k for k in RUN_FIELDS
        if k not in record and k not in OPTIONAL_RUN_FIELDS
    ]
    if missing:
        raise ValueError(f"run record missing fields: {missing}")
    if "backend" in record:
        b = record["backend"]
        if not isinstance(b, str) or not b:
            raise ValueError(f"backend must be a non-empty string, got {b!r}")
    unknown = [k for k in record if k not in RUN_FIELDS]
    if unknown:
        raise ValueError(f"run record has undeclared fields: {unknown}")
    bench = record["bench"]
    if bench not in REQUIRED_METRICS:
        raise ValueError(f"unknown bench family {bench!r}")
    if record["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"run record schema_version {record['schema_version']!r} "
            f"!= {SCHEMA_VERSION}"
        )
    metrics = record["metrics"]
    if not isinstance(metrics, dict):
        raise ValueError("metrics must be a dict")
    undeclared = [k for k in metrics if k not in METRIC_FIELDS]
    if undeclared:
        raise ValueError(f"metrics has undeclared fields: {undeclared}")
    absent = [k for k in REQUIRED_METRICS[bench] if k not in metrics]
    if absent:
        raise ValueError(f"{bench} run missing required metrics: {absent}")


def validate_bench(data: dict) -> None:
    """Raise ``ValueError`` unless *data* is a schema-valid BENCH file."""
    if data.get("format") != BENCH_FORMAT:
        raise ValueError(f"expected format {BENCH_FORMAT!r}, got {data.get('format')!r}")
    if data.get("version") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported BENCH version {data.get('version')!r} "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    if data.get("benchmark") not in REQUIRED_METRICS:
        raise ValueError(f"unknown benchmark family {data.get('benchmark')!r}")
    runs = data.get("runs")
    if not isinstance(runs, list):
        raise ValueError("BENCH file must carry a 'runs' list")
    for record in runs:
        validate_run(record)


def _empty_bench(benchmark: str) -> dict:
    return {
        "format": BENCH_FORMAT,
        "version": SCHEMA_VERSION,
        "benchmark": benchmark,
        "runs": [],
    }


def merge_run(path: PathLike, record: dict) -> dict:
    """Append *record* to the BENCH file at *path* (created with a fresh
    header if absent), validating both sides; returns the merged document.

    This is the append-only trajectory tool: existing runs are never
    rewritten, so ``BENCH_*.json`` accumulates one entry per measured run
    across PRs.  The merged document is written to a temporary file in the
    same directory and moved into place with :func:`os.replace`, so a crash
    mid-write can never truncate the trajectory: the file always holds
    either the old document or the new one.
    """
    validate_run(record)
    p = Path(path)
    if p.exists():
        data = json.loads(p.read_text())
        validate_bench(data)
        if data["benchmark"] != record["bench"]:
            raise ValueError(
                f"cannot merge {record['bench']!r} run into "
                f"{data['benchmark']!r} trajectory {p}"
            )
    else:
        data = _empty_bench(record["bench"])
    data["runs"].append(record)
    payload = json.dumps(data, indent=1, sort_keys=False) + "\n"
    fd, tmp = tempfile.mkstemp(
        dir=str(p.parent), prefix=p.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, p)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return data


def load_bench(path: PathLike) -> dict:
    """Read and validate a BENCH file."""
    data = json.loads(Path(path).read_text())
    validate_bench(data)
    return data
