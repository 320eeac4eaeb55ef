"""Typed trace events and the process-wide recorder.

Instrumented code follows one discipline everywhere::

    rec = get_recorder()
    if rec.enabled:
        rec.emit(SlotStart(slot=3, unread_tags=120))

The default recorder is :data:`NULL_RECORDER`, whose ``enabled`` flag is
``False`` — the instrumentation then costs a module-global read plus one
attribute check, and in particular never *computes* the event payload
(collision tallies, message counts, …).  Turning tracing on is a matter of
installing any recorder with ``enabled = True`` via :func:`set_recorder` or,
preferably, the :func:`recording` context manager which restores the
previous recorder on exit.

The event taxonomy is the observability contract: every class listed in
:data:`EVENT_TYPES` is documented in ``docs/observability.md`` (enforced by
``tests/test_obs_docs.py``).  Events are frozen dataclasses — immutable,
hashable-by-value records that collectors may retain without copying.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple


# ---------------------------------------------------------------------------
# event taxonomy
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SlotStart:
    """The MCS driver opens time-slot *slot* with *unread_tags* coverable
    unread tags remaining."""

    slot: int
    unread_tags: int


@dataclass(frozen=True)
class SlotEnd:
    """Time-slot *slot* closed: the chosen set served *tags_read* tags with
    weight *weight* using *active_readers* readers."""

    slot: int
    tags_read: int
    weight: int
    active_readers: int


@dataclass(frozen=True)
class SolverCall:
    """One one-shot solver invocation: *solver* took *seconds* of wall-clock
    and returned a set of *active_readers* readers with the given *weight*
    and feasibility.  *budget_exhausted* is the solver's report that its
    search budget cut the search off (``meta['budget_exhausted']``: PTAS
    and exact), so the set carries no approximation guarantee."""

    solver: str
    seconds: float
    weight: int
    active_readers: int
    feasible: bool
    budget_exhausted: bool = False


@dataclass(frozen=True)
class CandidateEvaluation:
    """A search routine evaluated *count* candidate scheduling sets.

    ``context`` names the search that did the work: ``"exact.bnb"``
    (branch-and-bound tree nodes), ``"ptas.dp_cells"`` (DP cells solved for
    one shift), ``"localsearch.moves"`` (annealing moves scored).
    """

    context: str
    count: int


@dataclass(frozen=True)
class CollisionTally:
    """Collision accounting for one slot: *rrc_blocked* unread tags blanked
    by reader–reader collision, *rtc_silenced* active readers silenced by
    reader–tag collision (Figure 1 of the paper)."""

    slot: int
    rrc_blocked: int
    rtc_silenced: int


@dataclass(frozen=True)
class LinkLayerSession:
    """Link-layer accounting for one slot: *readers* operational readers ran
    *protocol*, the slot lasted *micro_slots* micro-slots (parallel max),
    cost *total_work* micro-slots summed over readers, and identified
    *tags_read* tags."""

    protocol: str
    micro_slots: int
    total_work: int
    tags_read: int
    readers: int


@dataclass(frozen=True)
class DistsimRound:
    """One synchronous round of the message-passing engine: *delivered*
    messages arrived, *sent* were queued for next round, *dropped* of the
    sent messages were lost."""

    round_no: int
    delivered: int
    sent: int
    dropped: int


@dataclass(frozen=True)
class ScheduleDone:
    """A covering schedule finished: *slots* slots, *tags_read* tags served,
    *complete* iff every coverable tag was read."""

    slots: int
    tags_read: int
    complete: bool


@dataclass(frozen=True)
class ReaderFailed:
    """The fault-tolerant MCS driver suspected reader *reader* at slot
    *slot* after *missed_heartbeats* consecutive missed heartbeats; the
    reader is excluded from candidate sets until it answers again."""

    slot: int
    reader: int
    missed_heartbeats: int


@dataclass(frozen=True)
class ReadMissed:
    """*tags_missed* of slot *slot*'s served tags had their reads lost to
    the imperfect-read process; under ACK-based retirement they stay unread
    and are retried in later slots."""

    slot: int
    tags_missed: int


@dataclass(frozen=True)
class SolverDeadline:
    """The one-shot solve of slot *slot* by *solver* took *seconds* of
    wall-clock, exceeding its current budget of *budget_s* seconds."""

    slot: int
    solver: str
    seconds: float
    budget_s: float


@dataclass(frozen=True)
class ScheduleDegraded:
    """At slot *slot* the driver stepped down the degradation ladder from
    policy *from_policy* to *to_policy* (ladder: primary solver → fallback
    solver → greedy singleton)."""

    slot: int
    from_policy: str
    to_policy: str


@dataclass(frozen=True)
class ShardMerge:
    """The sharded driver merged slot *slot*: *cells_solved* live cells were
    solved against *halo_readers* advisory halo readers, and the
    boundary-reconciliation pass repaired *boundary_repairs* cross-cell
    RTc conflicts, leaving *active_readers* readers in the merged set.
    *budget_exhausted* counts the cell solves whose solver reported its
    search budget cut off (``meta['budget_exhausted']``: PTAS and exact
    then return a feasible set without their guarantee)."""

    slot: int
    cells_solved: int
    halo_readers: int
    boundary_repairs: int
    active_readers: int
    budget_exhausted: int = 0


@dataclass(frozen=True)
class PoolDispatch:
    """The parallel tier ran one deterministic map of *tasks* payloads on
    forked :class:`~repro.perf.pool.WorkerPool` workers (serial maps emit
    nothing).  *spawned* counts worker pools brought up for this dispatch
    (0 = an already-running pool was reused — the persistent pool's whole
    point; a one-shot map reports 1), and *payload_bytes* the pickled task
    bytes shipped to workers (measured only while a recorder is enabled).
    The dispatch's wall-clock is its ``pool.dispatch`` span."""

    tasks: int
    payload_bytes: int
    spawned: int


@dataclass(frozen=True)
class PoolRecovery:
    """The supervised worker pool recovered from a failed fork dispatch
    (serial maps run in the parent and need no supervision).  *reason*
    says what tripped: ``"worker-death"`` (a forked worker exited,
    detected by exitcode/pid reaping) or ``"deadline"`` (the dispatch
    exceeded the pool's per-dispatch deadline).  *respawned* is True when
    a fresh worker pool was forked for the retry (bounded by the pool's
    respawn budget, with exponential backoff); *serial_replay* is True
    when the failed payload slice was instead replayed deterministically
    in the parent — the last-resort path once the budget is exhausted.
    *tasks* is the size of the failed payload slice."""

    reason: str
    respawned: bool
    serial_replay: bool
    tasks: int


@dataclass(frozen=True)
class RelayClipped:
    """The cross-process trace relay clipped one worker payload:
    *dropped_events* worker-side events were dropped at the bounded relay
    buffer (:data:`repro.obs.relay.RELAY_MAX_EVENTS`) — the shipped trace
    is incomplete but the dispatch itself was unaffected.  Emitted in the
    parent during replay, inside the owning ``shard.solve`` /
    ``pool.dispatch`` span; aggregated into the ``relay_dropped_events``
    metric."""

    dropped_events: int


@dataclass(frozen=True)
class SweepPoint:
    """One replicated sweep measurement: ``measure(value, seed)`` at sweep
    parameter *param* took *seconds*."""

    param: str
    value: float
    seed: int
    seconds: float


@dataclass(frozen=True)
class SpanStart:
    """Hierarchical span *span_id* named *name* opened at perf-counter time
    *t* (seconds, host-relative) under *parent_id* (``None`` for a root
    span).  *attrs* carries the site's static attributes as sorted
    ``(key, value)`` pairs — a tuple, so the event stays hashable-by-value
    like every other event.  Span names are the span taxonomy of
    :data:`repro.obs.spans.SPAN_NAMES` (documented in
    ``docs/observability.md``)."""

    span_id: int
    parent_id: Optional[int]
    name: str
    t: float
    attrs: Tuple[Tuple[str, object], ...] = ()


@dataclass(frozen=True)
class SpanEnd:
    """Span *span_id* named *name* closed at perf-counter time *t* after
    *seconds* of wall-clock."""

    span_id: int
    name: str
    t: float
    seconds: float


#: Every event class in the taxonomy, in documentation order.
EVENT_TYPES: Tuple[type, ...] = (
    SlotStart,
    SlotEnd,
    SolverCall,
    CandidateEvaluation,
    CollisionTally,
    LinkLayerSession,
    DistsimRound,
    ScheduleDone,
    ReaderFailed,
    ReadMissed,
    SolverDeadline,
    ScheduleDegraded,
    ShardMerge,
    PoolDispatch,
    PoolRecovery,
    RelayClipped,
    SweepPoint,
    SpanStart,
    SpanEnd,
)


# ---------------------------------------------------------------------------
# recorders
# ---------------------------------------------------------------------------
class Recorder:
    """Base recorder interface.

    Subclasses set ``enabled = True`` and override :meth:`emit`.  The base
    class doubles as the specification of the null fast path: instrumented
    code must guard *all* payload computation behind ``rec.enabled`` so a
    disabled recorder costs one attribute check per instrumentation site.
    """

    #: Instrumented code skips event construction entirely when False.
    enabled: bool = False

    def emit(self, event) -> None:
        """Receive one trace event (no-op unless overridden)."""


class NullRecorder(Recorder):
    """The default do-nothing recorder (``enabled`` is False)."""

    __slots__ = ()


class TraceRecorder(Recorder):
    """Records every event verbatim, in emission order.

    The simplest enabled recorder — useful in tests and for ad-hoc
    inspection; production aggregation lives in
    :class:`repro.obs.collectors.RunCollector`.

    ``max_events`` bounds the retained list so tracing a paper-scale (or
    chaos) run cannot exhaust RAM: once the cap is reached further events
    are counted in :attr:`dropped_events` instead of stored.  For bounded
    memory *with* a complete record, stream through
    :class:`repro.obs.sink.JsonlSink` instead.
    """

    enabled = True

    def __init__(self, max_events: Optional[int] = None) -> None:
        if max_events is not None and max_events <= 0:
            raise ValueError(f"max_events must be positive, got {max_events}")
        self.events: List[object] = []
        self.max_events = max_events
        self.dropped_events = 0

    def emit(self, event) -> None:
        """Append *event* to :attr:`events`, or tally it in
        :attr:`dropped_events` once the ``max_events`` cap is reached."""
        if self.max_events is not None and len(self.events) >= self.max_events:
            self.dropped_events += 1
            return
        self.events.append(event)


#: Process-wide default recorder; never replaced, only shadowed.
NULL_RECORDER = NullRecorder()

_recorder: Recorder = NULL_RECORDER


def get_recorder() -> Recorder:
    """The currently installed process-wide recorder."""
    return _recorder


def set_recorder(recorder: Optional[Recorder]) -> Recorder:
    """Install *recorder* as the process-wide recorder (``None`` restores
    the null recorder); returns the previously installed one."""
    global _recorder
    previous = _recorder
    _recorder = recorder if recorder is not None else NULL_RECORDER
    return previous


@contextmanager
def recording(recorder: Optional[Recorder] = None) -> Iterator[Recorder]:
    """Context manager installing *recorder* (default: a fresh
    :class:`TraceRecorder`) for the dynamic extent of the block, restoring
    the previous recorder on exit::

        with recording(RunCollector()) as rec:
            greedy_covering_schedule(system, solver)
        print(rec.counters)
    """
    rec = recorder if recorder is not None else TraceRecorder()
    previous = set_recorder(rec)
    try:
        yield rec
    finally:
        set_recorder(previous)
