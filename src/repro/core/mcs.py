"""Greedy covering-schedule driver (Section III, Definitions 4–5).

The backbone of the paper's scheduling scheme: at every time-slot pick a
(near-)maximum weighted feasible scheduling set via the plugged-in one-shot
solver, serve its well-covered tags, retire them, repeat until no unread
*coverable* tag remains.  Theorem 1: with an exact MWFS per slot this greedy
loop is a ``log n``-approximation of the minimum covering schedule.

Tags outside every interrogation region (outside the monitored region M of
Definition 4) can never be read by any schedule; they are reported in
``uncovered_tags`` and do not block termination.

Termination is guaranteed: any unread coverable tag admits a positive-weight
singleton set, so if the solver returns a zero-weight set while coverable
tags remain (heuristics can), the driver activates the best singleton
instead — this never changes what an exact solver would do and keeps every
heuristic comparable on the same footing.

``read_mode``:
    ``"all"``    — a slot serves every well-covered tag of its active set
                   (the paper's weight semantics; used for Figures 6–7);
    ``"single"`` — each operational reader serves at most one tag per slot
                   (the strict "able to read at least one tag" slot sizing).

One loop: :func:`run_slot_loop` is the only implementation of this loop,
and every covering-schedule driver runs it through a small *world*
protocol (unread mask and count, solve, verify, best singleton, retire,
refresh).  ``_DenseWorld`` here runs it over an
:class:`~repro.model.system.RFIDSystem` — unsharded, or cell by cell
through :class:`~repro.shard.runtime.ShardRuntime` — for
:func:`greedy_covering_schedule` and the CSMA baseline (that driver over
``csma_oneshot``); its subclasses run the Colorwave
(:mod:`repro.baselines.colorwave`) and multi-channel
(:mod:`repro.core.multichannel`) baselines; the sparse-array world of
:mod:`repro.shard.scale` runs :func:`~repro.shard.scale.run_scale_schedule`.
All emit the same ``mcs.*`` spans, events and stage timings.

Fault tolerance (``docs/robustness.md``) is one layer around the loop,
:class:`FaultLayer`: passing ``faults=FaultPlan(...)`` (and optionally
``policy=FaultPolicy(...)``) hardens it against the non-ideal world —
reader crashes and flaky activations applied at the slot boundary,
false-negative reads retried via ACK-based retirement, heartbeat suspicion
(:class:`~repro.faults.HeartbeatMonitor`) excluding down readers from
candidate sets, and a stall guard terminating with
:attr:`ScheduleOutcome.stalled` when no progress is possible.  The
unsharded dense solve adds per-slot solver deadlines degrading to cheaper
policies instead of stalling.  With ``faults=None`` the loop is
bit-identical to the historical default path.

Faults compose with the scale tier: passing both ``faults=`` and ``shard=``
runs the fault world through the sharded engine — per-cell degraded
subsystems over unsuspected readers, suspicion masks shipped inside the
deterministic per-cell payloads (worker count still cannot change results),
and confirmed permanent crashes applied as an incremental partition refresh
(``shard.refresh`` span) that re-buckets orphaned tags and rebuilds only
the dirtied cells.  A deployment that collapses to one cell has no
partition and runs the unsharded world, keeping ``cells == 1``
bit-identical to ``shard=None``.
"""

from __future__ import annotations

import inspect
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from repro.core.oneshot import OneShotResult, OneShotSolver, get_solver
from repro.faults import FaultInjector, FaultPlan, FaultPolicy, HeartbeatMonitor
from repro.linklayer.session import InventoryResult, run_inventory_session
from repro.model.collisions import rrc_blocked_tags, rtc_victims
from repro.model.state import ReadState
from repro.model.system import ReducedSystems, RFIDSystem
from repro.obs.events import (
    CollisionTally,
    ReaderFailed,
    ReadMissed,
    ScheduleDegraded,
    ScheduleDone,
    SlotEnd,
    SlotStart,
    SolverDeadline,
    get_recorder,
)
from repro.obs.spans import span
from repro.perf.slotdelta import ScheduleContext
from repro.shard.partition import ShardPartition
from repro.shard.runtime import ShardRuntime
from repro.shard.spec import ShardSpec
from repro.util.rng import RngLike, as_rng
from repro.util.validation import check_nonnegative_int


@dataclass(frozen=True)
class SlotRecord:
    """What happened in one time-slot."""

    slot: int
    active: np.ndarray
    tags_read: np.ndarray
    weight: int
    solver_meta: dict = field(default_factory=dict)
    inventory: Optional[InventoryResult] = None

    def __post_init__(self) -> None:
        # Schedule history is shared with analysis code; freeze the arrays
        # so nothing can mutate it through the dataclass.
        for name in ("active", "tags_read"):
            arr = np.asarray(getattr(self, name), dtype=np.int64)
            if arr.flags.writeable:
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_read(self) -> int:
        """Tags served in this slot."""
        return int(len(self.tags_read))


class ScheduleOutcome(str, Enum):
    """How a covering schedule run terminated.

    ``complete``  — every coverable tag was read (the only outcome the ideal
    fault-free world can produce before the slot cap);
    ``exhausted`` — the ``max_slots`` cap fired with coverable tags unread;
    ``stalled``   — the stall guard fired: ``max_stall_slots`` consecutive
    slots confirmed zero reads, so under the current fault regime no further
    progress was possible (e.g. the only covering reader crashed
    permanently, or every read is being lost).
    """

    complete = "complete"
    exhausted = "exhausted"
    stalled = "stalled"


@dataclass(frozen=True)
class ScheduleResult:
    """A complete covering schedule.

    ``outcome`` says how the slot loop ended (:class:`ScheduleOutcome`).
    ``fault_trace`` carries the injector's deterministic trace fingerprint
    when a :class:`~repro.faults.FaultPlan` was active, else ``None``.
    """

    slots: List[SlotRecord]
    tags_read_total: int
    uncovered_tags: np.ndarray
    complete: bool
    outcome: ScheduleOutcome
    fault_trace: Optional[Tuple] = None

    @property
    def size(self) -> int:
        """Size of the covering schedule — number of time-slots
        (Definition 4)."""
        return len(self.slots)

    @property
    def total_micro_slots(self) -> int:
        """Total link-layer duration (max-per-slot summed), when inventory
        sessions were simulated."""
        return sum(s.inventory.duration for s in self.slots if s.inventory)

    def reads_per_slot(self) -> List[int]:
        """Tags served per slot, in slot order."""
        return [s.num_read for s in self.slots]


def accepts_context(solver: OneShotSolver) -> bool:
    """Whether *solver* takes the incremental ``context`` keyword."""
    try:
        return "context" in inspect.signature(solver).parameters
    except (TypeError, ValueError):  # builtins / exotic callables
        return False


class FaultLayer:
    """The fault world wrapped around the slot loop.

    Owns the :class:`~repro.faults.FaultInjector` (the deterministic fault
    world) and a :class:`~repro.faults.HeartbeatMonitor` over it.  Each
    slot the loop folds the failure draw into heartbeat suspicion
    (:meth:`begin_slot`, emitting ``ReaderFailed`` on each rising edge),
    drops readers whose activation failed (:meth:`drop_failed`) and keeps
    only the confirmed reads for ACK-based retirement (:meth:`confirm`).
    Both drivers share it; with ``faults=None`` none is built and the loop
    makes no extra draws.
    """

    def __init__(
        self, plan: FaultPlan, policy: FaultPolicy, num_readers: int, num_tags: int
    ) -> None:
        self.policy = policy
        self.injector = FaultInjector(plan, num_readers, num_tags)
        self.monitor = HeartbeatMonitor(self.injector, policy.heartbeat_timeout)

    @classmethod
    def engage(
        cls,
        plan: Optional[FaultPlan],
        policy: Optional[FaultPolicy],
        num_readers: int,
        num_tags: int,
    ) -> Optional["FaultLayer"]:
        """The layer for a driver's ``faults``/``policy`` arguments, or
        ``None`` when neither is given.  A policy without a plan engages
        the layer over an empty :class:`~repro.faults.FaultPlan`."""
        if plan is None and policy is None:
            return None
        return cls(
            plan if plan is not None else FaultPlan(),
            policy if policy is not None else FaultPolicy(),
            num_readers,
            num_tags,
        )

    def begin_slot(self, slot: int, rec) -> np.ndarray:
        """Advance heartbeat suspicion to *slot*; returns the suspicion
        mask."""
        _, newly = self.monitor.begin_slot(slot)
        if rec.enabled:
            for r in newly:
                rec.emit(
                    ReaderFailed(
                        slot=slot,
                        reader=int(r),
                        missed_heartbeats=int(self.monitor.consecutive_misses[r]),
                    )
                )
        return self.monitor.suspected

    def refresh(self, slot: int, world) -> bool:
        """Retire this slot's confirmed permanent crashes from *world*'s
        partition under a ``shard.refresh`` span; returns whether the world
        is left without solvable work."""
        if world.retired_readers is None:
            return False
        dead = self.monitor.confirmed_permanent(
            slot, exclude=world.retired_readers
        )
        if not len(dead):
            return False
        with span("shard.refresh", slot=slot, readers=int(len(dead))):
            return world.refresh(dead)

    def drop_failed(self, active) -> np.ndarray:
        """*active* without the readers whose activation failed this slot
        (crash or flaky activation)."""
        active = np.asarray(active, dtype=np.int64)
        if active.size == 0:
            return active
        return active[~self.monitor.failed[active]]

    def confirm(self, slot: int, well: np.ndarray, rec):
        """Split the slot's served tags into ``(confirmed, missed)``: a
        missed read is not acknowledged, so its tag stays unread."""
        missed = self.injector.missed_tags(slot, well)
        if not len(missed):
            return well, missed
        if rec.enabled:
            rec.emit(ReadMissed(slot=slot, tags_missed=int(len(missed))))
        return well[~np.isin(well, missed)], missed


class _DeadlineLadder:
    """Per-slot solver deadlines of the unsharded fault path: the
    primary → optional fallback → singleton degradation ladder with
    exponential backoff (``docs/robustness.md``).  Each rung is a
    ``(kind, name, solver)`` triple."""

    def __init__(self, policy: FaultPolicy, solver: OneShotSolver) -> None:
        self.policy = policy
        self.rungs = [("primary", getattr(solver, "__name__", "primary"), solver)]
        fb = policy.fallback_solver
        if callable(fb):
            self.rungs.append(("fallback", getattr(fb, "__name__", "fallback"), fb))
        elif fb is not None:
            self.rungs.append(("fallback", fb, get_solver(fb)))
        self.rungs.append(("singleton", "singleton", None))
        self._level = 0
        self._misses = 0

    @property
    def rung(self) -> Tuple[str, str, Optional[OneShotSolver]]:
        """The rung slots currently solve on."""
        return self.rungs[self._level]

    def note(self, slot: int, seconds: float, rec) -> None:
        """Check *seconds* against the current exponential-backoff budget;
        on a miss emit ``SolverDeadline``, and after ``deadline_retries``
        consecutive misses step one rung down the ladder (emitting
        ``ScheduleDegraded``).  Late results are still used for their own
        slot — only future slots solve cheaper."""
        deadline = self.policy.solver_deadline_s
        if deadline is None:
            return
        budget = deadline * (self.policy.backoff_factor ** self._misses)
        if seconds <= budget:
            self._misses = 0
            return
        if rec.enabled:
            rec.emit(
                SolverDeadline(
                    slot=slot,
                    solver=self.rung[1],
                    seconds=float(seconds),
                    budget_s=float(budget),
                )
            )
        self._misses += 1
        if (
            self._misses > self.policy.deadline_retries
            and self._level < len(self.rungs) - 1
        ):
            frm = self.rung[1]
            self._level += 1
            self._misses = 0
            if rec.enabled:
                rec.emit(
                    ScheduleDegraded(
                        slot=slot, from_policy=frm, to_policy=self.rung[1]
                    )
                )


class _DenseWorld:
    """The slot loop's world over a dense :class:`RFIDSystem`.

    Slots are solved on the full system — through the deadline ladder over
    the reduced candidate view when faults are engaged — or, given a
    *partition*, cell by cell through the :class:`ShardRuntime` built over
    it (:meth:`ShardRuntime.solve_slot`).  Verification, the singleton
    fallback (full-system counts) and retirement always run on the full
    system, so coverage guarantees do not depend on sharding.  The unread
    population lives in one :class:`~repro.perf.slotdelta.ScheduleContext`
    for the whole run, handed to solvers that accept a ``context``.  The
    Colorwave and multi-channel baselines subclass it.
    """

    def __init__(
        self,
        system: RFIDSystem,
        state: Optional[ReadState] = None,
        solver: Optional[OneShotSolver] = None,
        read_mode: str = "all",
        partition: Optional[ShardPartition] = None,
        ladder: Optional[_DeadlineLadder] = None,
    ) -> None:
        self.system = system
        self.state = state if state is not None else ReadState(system.num_tags)
        coverable = system.covered_by_any()
        #: tags outside every interrogation region, reported not scheduled
        self.uncovered = np.flatnonzero(~coverable & self.state.unread_mask)
        self.context = ScheduleContext(system, self.state.unread_mask & coverable)
        self.solver = solver
        self.takes_context = solver is not None and accepts_context(solver)
        self.read_mode = read_mode
        self.shard = None if partition is None else ShardRuntime(
            partition, self.context.unread, solver, self.takes_context
        )
        self.ladder = ladder
        self.rec = get_recorder()
        self._views = ReducedSystems()

    @property
    def unread(self) -> np.ndarray:
        """Mask of unread coverable tags."""
        return self.context.unread

    @property
    def num_unread(self) -> int:
        """Count of unread coverable tags."""
        return self.context.num_unread

    @property
    def retired_readers(self) -> Optional[np.ndarray]:
        """Readers a refresh retired; ``None`` when there is no partition
        to refresh."""
        return None if self.shard is None else self.shard.retired_readers

    def _call(self, solver: OneShotSolver, system: RFIDSystem, rng):
        if self.takes_context:
            return solver(system, self.unread, rng, context=self.context)
        return solver(system, self.unread, rng)

    def _candidate_view(self, suspected):
        """``(system, live_ids)`` the solver should see: the full system
        (``live_ids`` ``None``) when nothing is suspected, else a reduced
        system over the live readers (``None`` when every reader is
        suspected) from the bounded per-pattern cache."""
        if suspected is None or not suspected.any():
            return self.system, None
        return self._views.get(self.system, suspected)

    def solve(self, slot: int, rng, suspected):
        """The slot's proposed active set and solver meta."""
        if self.shard is not None:
            return self.shard.solve_slot(slot, rng, self.rec, suspected)
        kind, _, solver = (
            ("primary", None, self.solver) if self.ladder is None
            else self.ladder.rung
        )
        if kind == "singleton":
            best = self.best_singleton(suspected)
            active = [] if best is None else [best]
            return np.asarray(active, dtype=np.int64), {"solver": "singleton"}
        view, live = self._candidate_view(suspected)
        if view is None:  # every reader currently suspected
            return np.empty(0, dtype=np.int64), {"solver": "none"}
        t0 = time.perf_counter()
        if kind == "primary" and live is None:
            result: OneShotResult = self._call(solver, view, rng)
        else:
            result = solver(view, self.unread, rng)
        if self.ladder is not None:
            self.ladder.note(slot, time.perf_counter() - t0, self.rec)
        active = result.active if live is None else live[result.active]
        meta = dict(result.meta)
        if kind != "primary":
            meta["ladder"] = kind
        return np.asarray(active, dtype=np.int64), meta

    def verify(self, active: np.ndarray, unread: np.ndarray) -> np.ndarray:
        """Tags *active* serves this slot: its well-covered tags, at most
        one per reader under ``read_mode="single"``."""
        well = self.system.well_covered_tags(active, unread)
        if self.read_mode == "single" and len(well):
            cov = self.system.coverage[np.ix_(well, active)]
            owner = active[np.argmax(cov, axis=1)]
            keep = []
            seen = set()
            for t, rd in zip(well, owner):
                if int(rd) not in seen:
                    seen.add(int(rd))
                    keep.append(int(t))
            well = np.asarray(keep, dtype=np.int64)
        return well

    def collisions(self, active: np.ndarray, unread: np.ndarray):
        """``(rrc_blocked, rtc_silenced)`` of the slot's final active set."""
        return (
            int(len(rrc_blocked_tags(self.system, active, unread))),
            int(len(rtc_victims(self.system, active))),
        )

    def best_singleton(self, suspected) -> Optional[int]:
        """The unsuspected reader covering the most unread tags (lowest id
        on ties), or ``None``; the schedule context maintains exactly these
        counts."""
        counts = self.context.remaining_counts
        if suspected is not None:
            counts = np.where(suspected, 0, counts)
        if counts.size == 0 or counts.max() == 0:
            return None
        return int(np.argmax(counts))

    def retire(self, confirmed: np.ndarray, active: np.ndarray) -> None:
        """Mark *confirmed* read everywhere the run tracks unread tags."""
        self.state.mark_read(confirmed.tolist())
        self.context.retire_tags(confirmed)
        self.context.note_active(active)
        if self.shard is not None:
            self.shard.retire(confirmed)

    def refresh(self, dead: np.ndarray) -> bool:
        """Retire confirmed-dead readers from the partition.  Orphaned tags
        stay unread here, so the run goes on until the stall guard fires;
        returns ``False``."""
        self.shard.refresh(dead)
        return False

    def record(self, slot, active, confirmed, weight, meta, inventory):
        return SlotRecord(
            slot=slot,
            active=active,
            tags_read=confirmed,
            weight=weight,
            solver_meta=meta,
            inventory=inventory,
        )


def check_slot_caps(cap, max_stall_slots: Optional[int]) -> None:
    """Reject a slot cap that is not an integer ``>= 0`` and a stall
    limit (``None``: the policy's, or off) that is not one ``>= 1``."""
    check_nonnegative_int("max_slots", cap)
    if max_stall_slots is not None:
        check_nonnegative_int("max_stall_slots", max_stall_slots, minimum=1)


def run_slot_loop(
    world,
    rng,
    cap: int,
    faults: Optional[FaultLayer] = None,
    max_stall_slots: Optional[int] = None,
    linklayer: Optional[str] = None,
    **run_attrs,
) -> Tuple[list, int, bool, str]:
    """The greedy covering-schedule loop, shared by every driver.

    Each slot: solve for an active set, drop failed activations, verify
    what it serves, fall back to the best singleton when that is nothing,
    confirm the reads, retire them, repeat — until no unread tag is left,
    the *cap* fires, or the stall guard does.  *world* supplies the
    deployment (``_DenseWorld`` here and its Colorwave and multi-channel
    subclasses, ``repro.shard.scale._ArrayWorld``):
    ``unread`` / ``num_unread``, ``solve(slot, rng, suspected) -> (active,
    meta)``, ``verify(active, unread) -> served tags``,
    ``collisions(active, unread) -> (rrc, rtc)`` (called only while
    recording), ``best_singleton(suspected)`` (``None``: keep the slot),
    ``retire(confirmed, active)``, ``retired_readers`` (``None`` when it
    cannot refresh), ``refresh(dead) -> stalled`` and ``record(...)``
    building one slot record; ``system`` only when *linklayer* is set.
    *run_attrs* go on the ``mcs.run`` span.

    Returns ``(slot records, tags read, complete, outcome)`` with
    *outcome* one of ``"complete"``, ``"exhausted"``, ``"stalled"``.
    """
    check_slot_caps(cap, max_stall_slots)
    rec = get_recorder()
    stall_limit = max_stall_slots
    if stall_limit is None and faults is not None:
        stall_limit = faults.policy.max_stall_slots
    slots: list = []
    total_read = 0
    stall_run = 0
    stalled = False
    with span("mcs.run", faults=faults is not None, **run_attrs):
        while len(slots) < cap and world.num_unread > 0:
            slot = len(slots)
            unread = world.unread
            with span("mcs.slot", slot=slot):
                if rec.enabled:
                    rec.emit(SlotStart(slot=slot, unread_tags=world.num_unread))
                with span("mcs.solve", slot=slot):
                    suspected = None
                    if faults is not None:
                        suspected = faults.begin_slot(slot, rec)
                        if faults.refresh(slot, world):
                            stalled = True
                            break
                    active, meta = world.solve(slot, rng, suspected)
                    if faults is not None:
                        active = faults.drop_failed(active)
                    well = world.verify(active, unread)
                    if len(well) == 0:
                        # the chosen set reads nothing (all its readers
                        # down, or the solver whiffed) — fall back to the
                        # best live singleton; its activation may itself
                        # fail, yielding a zero-progress slot bounded by
                        # the stall guard.  A world with no fallback keeps
                        # its zero-read slot; a fault run with every
                        # reader suspected records an empty set.
                        best = world.best_singleton(suspected)
                        if best is not None:
                            active = np.asarray([best], dtype=np.int64)
                            if faults is not None:
                                active = faults.drop_failed(active)
                            well = world.verify(active, unread)
                        elif faults is not None:
                            active = np.empty(0, dtype=np.int64)

                confirmed, missed = well, None
                if faults is not None:
                    confirmed, missed = faults.confirm(slot, well, rec)

                inventory = None
                if linklayer is not None:
                    with span("mcs.inventory", slot=slot):
                        inventory = run_inventory_session(
                            world.system, active, unread, protocol=linklayer,
                            seed=rng, miss_tags=missed,
                        )

                if rec.enabled:
                    rrc, rtc = world.collisions(active, unread)
                    rec.emit(
                        CollisionTally(slot=slot, rrc_blocked=rrc, rtc_silenced=rtc)
                    )

                with span("mcs.retire", slot=slot):
                    world.retire(confirmed, active)
                total_read += int(len(confirmed))
                if rec.enabled:
                    rec.emit(
                        SlotEnd(
                            slot=slot,
                            tags_read=int(len(confirmed)),
                            weight=int(len(well)),
                            active_readers=int(len(active)),
                        )
                    )
                slots.append(
                    world.record(
                        slot, active, confirmed, int(len(well)), meta, inventory
                    )
                )
            if stall_limit is not None:
                stall_run = stall_run + 1 if len(confirmed) == 0 else 0
                if stall_run >= stall_limit:
                    stalled = True
                    break

        complete = not bool(world.unread.any())
        if stalled:
            outcome = "stalled"
        elif complete:
            outcome = "complete"
        elif len(slots) >= cap:
            outcome = "exhausted"
        else:
            # the world ran out of solvable work with tags still unread
            # (a refresh orphaned them): no further progress is possible
            outcome = "stalled"
        if rec.enabled:
            rec.emit(
                ScheduleDone(slots=len(slots), tags_read=total_read, complete=complete)
            )
    return slots, total_read, complete, outcome


def greedy_covering_schedule(
    system: RFIDSystem,
    solver: OneShotSolver,
    state: Optional[ReadState] = None,
    max_slots: Optional[int] = None,
    read_mode: str = "all",
    linklayer: Optional[str] = None,
    seed: RngLike = None,
    incremental: bool = False,
    faults: Optional[FaultPlan] = None,
    policy: Optional[FaultPolicy] = None,
    max_stall_slots: Optional[int] = None,
    shard: Optional[ShardSpec] = None,
) -> ScheduleResult:
    """Run the greedy covering-schedule loop with the given one-shot solver.

    Parameters
    ----------
    solver:
        Any :data:`~repro.core.oneshot.OneShotSolver` (from
        :func:`~repro.core.oneshot.get_solver` or custom).
    state:
        Optional pre-existing :class:`ReadState` (e.g. to resume a partially
        served population); mutated in place.
    max_slots:
        Safety cap; default ``4·n + 64`` slots.
    read_mode:
        ``"all"`` or ``"single"`` (see module docstring).
    linklayer:
        ``None`` (no micro-slot accounting), ``"aloha"`` or ``"treewalk"``.
    incremental:
        Accepted and ignored.  The cross-slot
        :class:`~repro.perf.slotdelta.ScheduleContext` is always on: it
        maintains the unread mask and per-reader remaining counts across
        slots and is passed to solvers that accept a ``context`` keyword,
        which may then drop retired readers from their candidate pools and
        warm-start from the previous slot (``docs/performance.md``).
    faults:
        Optional :class:`~repro.faults.FaultPlan` — a seeded, deterministic
        fault world (reader crashes, flaky activations, imperfect reads)
        applied at the slot boundary.  Engages ACK-based retirement (a tag
        is retired only when its read is confirmed; missed reads are retried
        in later slots), heartbeat suspicion (readers failing
        ``policy.heartbeat_timeout`` consecutive slots are excluded from
        candidate sets until they recover), and the stall guard.  With
        ``faults=None`` the loop is bit-identical to the historical default
        path.  See ``docs/robustness.md``.
    policy:
        Optional :class:`~repro.faults.FaultPolicy` tuning the tolerance
        machinery (heartbeat timeout, per-slot solver deadline with
        exponential backoff and the primary → fallback → singleton
        degradation ladder, stall limit).  Passing a policy without a plan
        engages the fault path with an empty :class:`FaultPlan` — useful for
        deadline/stall enforcement in a fault-free world.
    max_stall_slots:
        Terminate with :attr:`ScheduleOutcome.stalled` after this many
        consecutive slots confirming zero reads.  Defaults to
        ``policy.max_stall_slots`` when the fault path is engaged, else off.
    shard:
        Optional :class:`~repro.shard.spec.ShardSpec` engaging the scale
        tier (``docs/scale.md``): the system is partitioned into spatial
        cells with one-ring halos, each slot solves the live cells
        independently (concurrently when ``spec.workers`` asks for it) and
        merges their owned activations through the deterministic
        boundary-reconciliation pass.  ``ShardSpec(cells=1)`` (or any
        deployment collapsing to one cell) is bit-identical to the
        unsharded driver.  Well-covered extraction, the singleton fallback
        and retirement still run on the full system, so coverage guarantees
        are unchanged.  Composes with ``faults``/``policy``: affected cells
        solve degraded subsystems over their unsuspected local readers, and
        confirmed permanent crashes trigger an incremental partition
        refresh (``docs/scale.md`` and ``docs/robustness.md``).
    """
    if read_mode not in ("all", "single"):
        raise ValueError(f"read_mode must be 'all' or 'single', got {read_mode!r}")
    fault_layer = FaultLayer.engage(
        faults, policy, system.num_readers, system.num_tags
    )
    cap = max_slots if max_slots is not None else 4 * system.num_readers + 64
    # a deployment collapsing to one cell has no partition and runs the
    # unsharded world, keeping cells == 1 bit-identical to shard=None
    partition = (
        None if shard is None else ShardPartition.from_system(system, shard)
    )
    ladder = None
    if fault_layer is not None and partition is None:
        ladder = _DeadlineLadder(fault_layer.policy, solver)
    world = _DenseWorld(system, state, solver, read_mode, partition, ladder)
    return _dense_schedule(
        world, cap, seed, fault_layer, max_stall_slots, linklayer,
        solver=getattr(solver, "__name__", "solver"),
    )


def _dense_schedule(
    world: _DenseWorld,
    cap: int,
    seed: RngLike,
    faults: Optional[FaultLayer] = None,
    max_stall_slots: Optional[int] = None,
    linklayer: Optional[str] = None,
    **run_attrs,
) -> ScheduleResult:
    """Run :func:`run_slot_loop` over a dense *world* into a
    :class:`ScheduleResult`: the tail of every dense driver."""
    # one persistent worker pool for every slot of a sharded run (no-op for
    # serial specs; see ShardRuntime.pool_scope)
    pool_cm = (
        world.shard.pool_scope() if world.shard is not None else nullcontext()
    )
    with pool_cm:
        slots, total_read, complete, outcome = run_slot_loop(
            world, as_rng(seed), cap, faults, max_stall_slots, linklayer,
            **run_attrs,
        )
    return ScheduleResult(
        slots=slots,
        tags_read_total=total_read,
        uncovered_tags=world.uncovered,
        complete=complete,
        outcome=ScheduleOutcome(outcome),
        fault_trace=faults.injector.trace_fingerprint() if faults else None,
    )
