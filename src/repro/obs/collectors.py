"""Aggregation of trace events into per-run counters, timers and series.

A :class:`RunCollector` is an enabled :class:`~repro.obs.events.Recorder`
that folds the event stream into exactly the quantities the BENCH schema
exports (:mod:`repro.obs.export`): monotone counters, a
:class:`~repro.util.timing.Stopwatch` of solver wall-clock, and per-slot
series for the flamegraph-style breakdown in ``docs/observability.md``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.events import (
    CandidateEvaluation,
    CollisionTally,
    DistsimRound,
    LinkLayerSession,
    PoolDispatch,
    PoolRecovery,
    ReaderFailed,
    ReadMissed,
    Recorder,
    RelayClipped,
    ScheduleDegraded,
    ScheduleDone,
    ShardMerge,
    SlotEnd,
    SlotStart,
    SolverCall,
    SolverDeadline,
    SpanEnd,
    SpanStart,
    SweepPoint,
)
from repro.obs.metrics import MetricsRegistry
from repro.util.timing import Stopwatch


class RunCollector(Recorder):
    """Aggregates one run's trace events.

    Attributes
    ----------
    counters:
        Monotone event tallies (see :meth:`summary` for the exported names).
    solver_times:
        :class:`Stopwatch` keyed by solver name — wall-clock per invocation.
    tags_per_slot / sets_per_slot / solve_s_per_slot:
        Per-slot series, appended at each ``SlotEnd`` so they line up: tags
        served, candidate sets evaluated while the slot was open (the
        per-phase breakdown of where search effort went), and the slot's
        ``mcs.solve`` span seconds.  A slot that ends inside its solve
        stage (stall, refresh) emits no ``SlotEnd`` and adds no entry.
    sets_by_context:
        Candidate-set evaluations keyed by search context
        (``"exact.bnb"``, ``"ptas.dp_cells"``, ``"localsearch.moves"``).
    stage_times:
        :class:`Stopwatch` of inclusive seconds keyed by span name, folded
        from every ``SpanEnd`` (``"mcs.solve"`` / ``"mcs.inventory"`` /
        ``"mcs.retire"``, ``"pool.dispatch"``, ``"solver.call"``, …) — the
        per-stage wall-clock breakdown behind ``rfid-sched bench
        --profile``.  Spans are the only timing source: a new span shows
        up here without collector code.
    fault_counters:
        Tallies of the robustness events (``readers_failed``,
        ``reads_missed``, ``solver_deadline_misses``,
        ``schedule_degradations``).  Exported by :meth:`summary` only when
        the fault layer emitted at least one event, so default-path records
        keep exactly their historical shape.
    shard_counters:
        Tallies of the sharded driver's merge events (``shard_cells``,
        ``shard_halo_readers``, ``shard_boundary_repairs``,
        ``shard_budget_exhausted``), summed over slots.  Like the fault counters, exported by :meth:`summary` only
        when at least one :class:`~repro.obs.events.ShardMerge` event was
        seen — unsharded records keep their historical shape.
    pool_counters:
        Tallies of the parallel tier's dispatch events (``pool_spawns``,
        ``pool_tasks``, ``pool_payload_bytes``), summed over
        :class:`~repro.obs.events.PoolDispatch` events.  The supervision
        tallies (``pool_respawns``: fresh pools forked after a worker death or
        deadline, ``pool_deadline_hits``: dispatches that exceeded the
        per-dispatch deadline) come from
        :class:`~repro.obs.events.PoolRecovery` events.  Exported by
        :meth:`summary` only when the parallel tier actually dispatched or
        recovered, so serial records keep their historical shape.
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry` of latency/size
        histograms fed from the event stream: ``slot_solve_s`` (the MCS
        driver's per-slot solve-stage wall, from ``mcs.solve`` span ends),
        ``cell_solve_s`` (per-cell solve wall in sharded runs, from
        ``shard.solve`` span ends), ``halo_readers`` (per-cell halo size, from
        ``ShardMerge``), ``pool_dispatch_s`` (end-to-end parallel dispatch
        latency, from ``pool.dispatch`` span ends), and
        ``fault_ladder_depth`` (the degradation-ladder level reached per
        step, from ``ScheduleDegraded``).  Exported by :meth:`summary` as the optional
        ``histograms`` metric field (p50/p90/p99 summaries) whenever any
        instrument fired.
    ignored_events:
        Count of events outside the :data:`~repro.obs.events.EVENT_TYPES`
        taxonomy that this collector received and skipped.  Never exported
        by :meth:`summary` — it exists to debug custom taxonomies feeding
        the wrong recorder.  Span events aggregate to no counter: a
        ``SpanEnd`` feeds :attr:`stage_times` (and the three span
        histograms).
    """

    enabled = True

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {
            "slots": 0,
            "tags_read": 0,
            "solver_calls": 0,
            "solver_budget_exhausted": 0,
            "sets_evaluated": 0,
            "rrc_blocked": 0,
            "rtc_silenced": 0,
            "linklayer_micro_slots": 0,
            "linklayer_work": 0,
            "distsim_rounds": 0,
            "distsim_messages": 0,
            "distsim_dropped": 0,
            "sweep_points": 0,
        }
        self.fault_counters: Dict[str, int] = {
            "readers_failed": 0,
            "reads_missed": 0,
            "solver_deadline_misses": 0,
            "schedule_degradations": 0,
        }
        self._fault_events_seen = False
        self.shard_counters: Dict[str, int] = {
            "shard_cells": 0,
            "shard_halo_readers": 0,
            "shard_boundary_repairs": 0,
            "shard_budget_exhausted": 0,
        }
        self._shard_events_seen = False
        self.pool_counters: Dict[str, int] = {
            "pool_spawns": 0,
            "pool_tasks": 0,
            "pool_payload_bytes": 0,
            "pool_respawns": 0,
            "pool_deadline_hits": 0,
            "relay_dropped_events": 0,
        }
        self._pool_events_seen = False
        self.metrics = MetricsRegistry()
        self._ladder_level = 0
        self.solver_times = Stopwatch()
        self.stage_times = Stopwatch()
        self.sweep_times = Stopwatch()
        self.tags_per_slot: List[int] = []
        self.sets_per_slot: List[int] = []
        self.solve_s_per_slot: List[float] = []
        self.sets_by_context: Dict[str, int] = {}
        self.schedule_complete: Optional[bool] = None
        self.ignored_events = 0
        self._open_slot: Optional[int] = None
        self._open_slot_sets = 0
        self._open_slot_solve_s = 0.0

    # ------------------------------------------------------------------
    def emit(self, event) -> None:
        """Fold one event into the aggregates.  Events outside the
        taxonomy are skipped and tallied in :attr:`ignored_events`, so
        custom recorders can extend the taxonomy without breaking this
        collector."""
        if isinstance(event, SpanEnd):
            self.stage_times.record(event.name, event.seconds)
            if event.name == "mcs.solve":
                self._open_slot_solve_s += event.seconds
                self.metrics.histogram("slot_solve_s").observe(event.seconds)
            elif event.name == "pool.dispatch":
                self.metrics.histogram("pool_dispatch_s").observe(event.seconds)
            elif event.name == "shard.solve":
                self.metrics.histogram("cell_solve_s").observe(event.seconds)
        elif isinstance(event, SlotStart):
            self._open_slot = event.slot
            self._open_slot_sets = 0
            self._open_slot_solve_s = 0.0
        elif isinstance(event, SlotEnd):
            self.counters["slots"] += 1
            self.counters["tags_read"] += event.tags_read
            self.tags_per_slot.append(event.tags_read)
            self.sets_per_slot.append(self._open_slot_sets)
            self.solve_s_per_slot.append(self._open_slot_solve_s)
            self._open_slot = None
            self._open_slot_sets = 0
            self._open_slot_solve_s = 0.0
        elif isinstance(event, SolverCall):
            self.counters["solver_calls"] += 1
            self.counters["solver_budget_exhausted"] += event.budget_exhausted
            self.solver_times.record(event.solver, event.seconds)
        elif isinstance(event, CandidateEvaluation):
            self.counters["sets_evaluated"] += event.count
            self.sets_by_context[event.context] = (
                self.sets_by_context.get(event.context, 0) + event.count
            )
            if self._open_slot is not None:
                self._open_slot_sets += event.count
        elif isinstance(event, CollisionTally):
            self.counters["rrc_blocked"] += event.rrc_blocked
            self.counters["rtc_silenced"] += event.rtc_silenced
        elif isinstance(event, LinkLayerSession):
            self.counters["linklayer_micro_slots"] += event.micro_slots
            self.counters["linklayer_work"] += event.total_work
        elif isinstance(event, DistsimRound):
            self.counters["distsim_rounds"] += 1
            self.counters["distsim_messages"] += event.sent
            self.counters["distsim_dropped"] += event.dropped
        elif isinstance(event, ReaderFailed):
            self.fault_counters["readers_failed"] += 1
            self._fault_events_seen = True
        elif isinstance(event, ReadMissed):
            self.fault_counters["reads_missed"] += event.tags_missed
            self._fault_events_seen = True
        elif isinstance(event, SolverDeadline):
            self.fault_counters["solver_deadline_misses"] += 1
            self._fault_events_seen = True
        elif isinstance(event, ScheduleDegraded):
            self.fault_counters["schedule_degradations"] += 1
            self._fault_events_seen = True
            self._ladder_level += 1
            self.metrics.histogram("fault_ladder_depth").observe(
                self._ladder_level
            )
        elif isinstance(event, ShardMerge):
            self.shard_counters["shard_cells"] += event.cells_solved
            self.shard_counters["shard_halo_readers"] += event.halo_readers
            self.shard_counters["shard_boundary_repairs"] += event.boundary_repairs
            self.shard_counters["shard_budget_exhausted"] += event.budget_exhausted
            self._shard_events_seen = True
            self.metrics.histogram("halo_readers").observe(event.halo_readers)
        elif isinstance(event, PoolDispatch):
            self.pool_counters["pool_spawns"] += event.spawned
            self.pool_counters["pool_tasks"] += event.tasks
            self.pool_counters["pool_payload_bytes"] += event.payload_bytes
            self._pool_events_seen = True
        elif isinstance(event, PoolRecovery):
            if event.respawned:
                self.pool_counters["pool_respawns"] += 1
            if event.reason == "deadline":
                self.pool_counters["pool_deadline_hits"] += 1
            self._pool_events_seen = True
        elif isinstance(event, RelayClipped):
            self.pool_counters["relay_dropped_events"] += event.dropped_events
            self._pool_events_seen = True
        elif isinstance(event, SpanStart):
            pass  # only span ends carry seconds
        elif isinstance(event, ScheduleDone):
            self.schedule_complete = event.complete
        elif isinstance(event, SweepPoint):
            self.counters["sweep_points"] += 1
            self.sweep_times.record(event.param, event.seconds)
        else:
            self.ignored_events += 1

    # ------------------------------------------------------------------
    @property
    def solver_wall_clock_s(self) -> float:
        """Total solver wall-clock across every solver, in seconds."""
        return sum(self.solver_times.total(lb) for lb in self.solver_times.labels())

    def summary(self) -> dict:
        """The aggregates as a plain dict — the ``metrics`` payload of a
        BENCH run record (field names documented in
        ``docs/observability.md``)."""
        out = dict(self.counters)
        out["solver_wall_clock_s"] = self.solver_wall_clock_s
        out["solver_seconds_by_name"] = {
            lb: self.solver_times.total(lb) for lb in self.solver_times.labels()
        }
        out["sets_by_context"] = dict(sorted(self.sets_by_context.items()))
        if self.stage_times.labels():
            out["stage_seconds_by_name"] = {
                lb: self.stage_times.total(lb) for lb in self.stage_times.labels()
            }
        if self._fault_events_seen:
            out.update(self.fault_counters)
        if self._shard_events_seen:
            out.update(self.shard_counters)
        if self._pool_events_seen:
            out.update(self.pool_counters)
        histograms = self.metrics.histogram_summaries()
        if histograms:
            out["histograms"] = histograms
        out["tags_per_slot"] = list(self.tags_per_slot)
        out["sets_per_slot"] = list(self.sets_per_slot)
        if self.schedule_complete is not None:
            out["complete"] = bool(self.schedule_complete)
        return out
