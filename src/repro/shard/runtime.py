"""Per-slot execution engine for sharded covering schedules.

:class:`ShardRuntime` owns the mutable cross-slot state of a sharded solve:
one :class:`~repro.perf.slotdelta.ScheduleContext` per cell, tracking that
cell's **owned** unread tags (halo tags start read locally, so each tag's
weight is credited to exactly one cell).  Every slot it

1. solves each *live* cell (one with owned unread tags left) independently
   on its halo-augmented subsystem with the run's one solver, bound at
   construction — in process, or concurrently on the persistent
   :class:`~repro.perf.pool.WorkerPool` of :meth:`ShardRuntime.pool_scope`
   when the dense sharded driver holds one (``spec.workers``).  Both paths
   build the same ``(slot, cell, seed, suspicion)`` payload per live
   cell, with child seeds drawn from the driver's stream, and the pooled
   path only adds the cell's retired-tag log, so worker count never
   changes results;
2. keeps only each cell's **owned** activations (halo readers are advisory:
   they model neighbour interference but only their owner cell may activate
   them);
3. merges the per-cell sets in deterministic cell order and runs the
   boundary-reconciliation pass: cross-cell RTc conflicts that survive the
   halo modelling (each cell solved against the halo's *candidates*, not
   its neighbours' *decisions*) are repaired greedily, dropping the reader
   with the smaller remaining-coverage value (ties to the higher id) until
   the merged set has no cross-cell conflict.

Intra-cell feasibility is the cell solver's business and is left untouched
— the driver's well-covered extraction (Definition 1 generalised) is
computed on the full system afterwards, exactly as for unsharded solves.

A deployment that collapses to one cell has no partition
(:meth:`~repro.shard.partition.ShardPartition.from_arrays` returns
``None``), so there is no runtime for it: both drivers solve it as an
unsharded system, making ``cells == 1`` bit-identical to the unsharded
driver (certified by ``tests/test_shard.py`` and the paired BENCH_scale
records).  The runtime holds the driver's live unread mask by reference
and never writes it; the driver retires confirmed tags there.

Fault composition (``docs/robustness.md``): when the driver runs a fault
plan, :meth:`ShardRuntime.solve_slot` takes the global *suspected* mask and
each affected cell solves a **degraded subsystem** over its unsuspected
local readers (:class:`~repro.model.system.ReducedSystems`, the same
latest-pattern-per-key cache as the unsharded driver's candidate view).
The mask is part of the per-cell payload, so the degraded world is a pure
function of ``(plan.seed, slot)`` and worker count still cannot change
results.
Confirmed permanent crashes are applied by :meth:`ShardRuntime.refresh`:
the partition re-buckets orphaned tags and rebuilds dirtied cells
(:meth:`~repro.shard.partition.ShardPartition.retire_readers`), the runtime
rebuilds exactly those cells' contexts from the driver's unread mask —
surviving contexts are preserved — and an active persistent pool is
respawned so workers fork the refreshed state.

Lockstep GHC: a runtime built with ``lockstep=True`` (the array-first
driver running the registry's ``"ghc"``) solves every live cell with no
suspected reader in one GHC climb over all of them
(:func:`repro.shard.climb.climb_cells`) instead of one solver call per
cell; each cell activates exactly the readers its own call would.

Telemetry: each live cell's solve runs under a ``shard.solve`` span opened
inside :meth:`ShardRuntime._solve_cell`, wherever the cell is solved.  In
process the span nests under the driver's ``mcs.solve``; on the pool it is
one of the worker events that :class:`~repro.perf.pool.WorkerPool`'s
per-task relay (:mod:`repro.obs.relay`) ships back and replays under
``pool.dispatch``, stamped with ``relay_pid``.  Either way the span times
the whole cell solve, and its ``SpanEnd`` seconds feed the
``cell_solve_s`` histogram.  A lockstep climb runs under one
``shard.solve`` span for all its cells (``cells=``, no ``cell``).  The
merge pass runs under ``shard.merge``, and a
:class:`~repro.obs.events.ShardMerge` event carries the slot's work
counters, among them the number of cell solves whose solver reported its
search budget cut off (``budget_exhausted``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List, Optional, Tuple

import numpy as np

from repro.obs.events import ShardMerge
from repro.obs.spans import span
from repro.model.system import ReducedSystems
from repro.perf.parallel import in_pool_worker
from repro.perf.pool import WorkerPool
from repro.perf.slotdelta import ScheduleContext
from repro.shard.climb import CellStackKernel, climb_cells
from repro.shard.partition import RefreshReport, ShardPartition
from repro.util.rng import LazyRng


class ShardRuntime:
    """Cross-slot state and per-slot solve/merge logic for one partition.

    Parameters
    ----------
    partition:
        The :class:`~repro.shard.partition.ShardPartition` to run over.
    unread:
        The driver's live global unread mask (its coverable-unread
        population), held by reference and never written here.  Each
        cell's context starts from it restricted to the cell's owned tags,
        and :meth:`refresh` rebuilds dirtied cells from it, so the driver
        must retire confirmed tags in it.
    solver:
        The one-shot solver every cell solve of the run calls.
    takes_context:
        Whether *solver* accepts a ``context`` keyword
        (:func:`repro.core.mcs.accepts_context`, computed once by the
        driver); cell solves then receive their cell's live
        :class:`~repro.perf.slotdelta.ScheduleContext`.
    lockstep:
        Whether *solver* is the registry's plain ``"ghc"``: in-process
        slots then climb every cell with no suspected reader in one
        lockstep GHC (:func:`repro.shard.climb.climb_cells`), which
        activates exactly the readers the per-cell solves would.
    """

    def __init__(
        self,
        partition: ShardPartition,
        unread: np.ndarray,
        solver,
        takes_context: bool,
        lockstep: bool = False,
    ):
        self.partition = partition
        self._unread = unread
        self._solver = solver
        self._takes_context = takes_context
        self._lockstep = lockstep
        # the stacked cells of the lockstep climb, built on first use
        self._stack: Optional[CellStackKernel] = None
        self._contexts = [self._context(cell) for cell in partition.cells]
        #: Readers retired by :meth:`refresh` (confirmed permanent crashes).
        self.retired_readers = np.zeros(
            len(partition.reader_positions), dtype=bool
        )
        # degraded per-cell subsystems, keyed by (cell, suspicion pattern);
        # per-process (workers fill their own copies deterministically)
        self._views = ReducedSystems()
        # persistent-pool state (active only inside pool_scope)
        self._pool: Optional[WorkerPool] = None
        self._retired_logs: Optional[List[List[np.ndarray]]] = None
        self._pool_applied: Optional[List[int]] = None

    def _context(self, cell) -> ScheduleContext:
        """A fresh context over *cell*'s owned tags still unread."""
        return ScheduleContext(
            cell.subsystem, cell.owned_tag_mask & self._unread[cell.tag_ids]
        )

    # ------------------------------------------------------------------
    @property
    def num_unread(self) -> int:
        """Unread owned tags summed over cells."""
        return sum(ctx.num_unread for ctx in self._contexts)

    def live_cells(self) -> List[int]:
        """Indices of cells with owned unread tags remaining, ascending."""
        return [
            i for i, ctx in enumerate(self._contexts) if ctx.num_unread > 0
        ]

    # ------------------------------------------------------------------
    @contextmanager
    def pool_scope(self):
        """Hold one persistent :class:`~repro.perf.pool.WorkerPool` for
        every slot solved inside the ``with`` block.

        The workers fork *now* and inherit the whole runtime — partition,
        subsystems, per-cell contexts — as copy-on-write pages; afterwards
        each :meth:`solve_slot` ships only the per-cell payloads plus each
        cell's retired-tag log, and forked workers replay the log suffix
        they have not yet applied before solving (``retire_tags`` is
        idempotent on a tag set, so replay order cannot change state).
        Exiting the scope — normally or through a solver exception —
        terminates and joins the workers, so no child can leak.

        Yields ``None`` and holds no pool — :meth:`solve_slot` then solves
        the live cells in an in-process loop — whenever the pool would run
        serially: one worker, inside a pool worker (the nested-parallelism
        rule of :mod:`repro.perf.parallel`, counted and warned once by the
        pool), or on a platform without ``fork`` (warned once by the
        pool's :meth:`~repro.perf.pool.WorkerPool.start`).  A serial pool
        would only ship and replay every retirement log a second time.
        Only the dense sharded driver enters this scope; the array-first
        driver always solves in process.
        """
        pool = WorkerPool(self.partition.spec.workers)
        if pool.mode == "serial":
            pool.start()  # starts nothing; reports a missing fork
            yield None
            return
        self._retired_logs = [[] for _ in self.partition.cells]
        self._pool_applied = [0] * len(self.partition.cells)
        try:
            pool.register(self._solve_cell_pool)
            pool.start()  # fork here: contexts are in their slot-0 state
            self._pool = pool
            yield pool
        finally:
            # close self._pool, not the local: refresh() may have respawned
            pool, self._pool = self._pool, None
            if pool is not None:
                pool.close()
            self._retired_logs = None
            self._pool_applied = None

    def _solve_cell_pool(self, payload):
        """Pool worker body: catch the cell up on retirements it has not
        seen, then solve it (:meth:`_solve_cell`).

        Forked workers keep their fork-time snapshot of the contexts, so
        the payload carries the cell's full retired-tag log and each worker
        applies only the suffix beyond its own ``_pool_applied`` watermark.
        The supervisor's last-resort serial replay runs this in the parent,
        whose contexts are already authoritative — the
        :func:`in_pool_worker` guard skips the log replay there.
        """
        slot, idx, seed, susp, log = payload
        if in_pool_worker():
            applied = self._pool_applied[idx]
            for entry in log[applied:]:
                self._contexts[idx].retire_tags(entry)
            self._pool_applied[idx] = len(log)
        return self._solve_cell(slot, idx, seed, susp)

    # ------------------------------------------------------------------
    def solve_slot(
        self,
        slot: int,
        rng,
        rec,
        suspected: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, dict]:
        """Produce the slot's merged active set; returns ``(active, meta)``.

        *rng* is the driver's stream: one child seed per live cell is drawn
        from it.  *rec* is the driver's recorder.  *suspected* is the fault
        layer's global suspicion mask: each affected cell then solves a
        degraded subsystem over its unsuspected local readers.  The mask
        travels in the per-cell payloads, so suspicion-aware solves stay a
        pure function of the payload and worker count cannot change
        results.
        """
        live = self.live_cells()
        # one child seed per live cell, from the driver's stream — worker
        # count never touches the rng, so parallelism cannot change results
        seeds = rng.integers(0, 2 ** 63 - 1, size=len(live))
        payloads = [
            (slot, idx, int(seed), self._local_suspicion(idx, suspected))
            for idx, seed in zip(live, seeds)
        ]
        if self._pool is not None:
            # persistent pool: add each cell's retirement log (workers
            # replay only their unseen suffix; see pool_scope)
            parts = self._pool.map(
                self._solve_cell_pool,
                [p + (tuple(self._retired_logs[p[1]]),) for p in payloads],
            )
        elif self._lockstep:
            # cells with a suspected reader solve a degraded subsystem
            parts = [self._solve_cell(*p) for p in payloads if p[3] is not None]
            calm = [p[1] for p in payloads if p[3] is None]
            if calm:
                parts.append(self._climb_cells(slot, calm))
        else:
            parts = [self._solve_cell(*p) for p in payloads]
        merged = (
            np.sort(np.concatenate([ids for ids, _ in parts]))
            if parts
            else np.empty(0, dtype=np.int64)
        )
        with span("shard.merge", slot=slot, cells=len(live)):
            active, repairs = self._reconcile(merged)
        if rec.enabled:
            rec.emit(
                ShardMerge(
                    slot=slot,
                    cells_solved=len(live),
                    halo_readers=sum(
                        int(len(self.partition.cells[idx].halo_reader_ids))
                        for idx in live
                    ),
                    boundary_repairs=repairs,
                    active_readers=int(len(active)),
                    budget_exhausted=sum(cut for _, cut in parts),
                )
            )
        meta = {
            "solver": "shard",
            "cells_solved": len(live),
            "boundary_repairs": repairs,
        }
        return active, meta

    def _local_suspicion(
        self, idx: int, suspected: Optional[np.ndarray]
    ) -> Optional[np.ndarray]:
        """Cell *idx*'s local slice of the global suspicion mask, or
        ``None`` when nothing in the cell is suspected, so an unaffected
        cell's solve (payload, warm start, cache) is byte-identical to the
        fault-free one."""
        if suspected is None:
            return None
        local = suspected[self.partition.cells[idx].all_reader_ids]
        return local if local.any() else None

    # ------------------------------------------------------------------
    def _solve_cell(
        self, slot: int, idx: int, seed: int, susp: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, bool]:
        """Worker body: solve one cell with its own seeded rng under a
        ``shard.solve`` span; returns the owned active readers as global
        ids and whether the solver reported its search cut off
        (``meta['budget_exhausted']``, set by PTAS and exact).

        The rng is a :class:`~repro.util.rng.LazyRng`: a solver that draws
        sees ``default_rng(seed)``'s stream, and the deterministic solvers
        (GHC, PTAS, exact, centralized, distributed) never build it.

        Runs in a pool worker (through :meth:`_solve_cell_pool`) or inline
        when serial.  A local suspicion mask *susp* (``None`` for an
        unaffected cell) routes the solve through a degraded subsystem over
        the unsuspected local readers (no warm-start context — the cell
        context indexes the full subsystem).  Only picklable values cross
        the process boundary.
        """
        cell = self.partition.cells[idx]
        with span(
            "shard.solve",
            slot=slot,
            cell=idx,
            readers=len(cell.all_reader_ids),
            halo=len(cell.halo_reader_ids),
        ):
            ctx = self._contexts[idx]
            system = cell.subsystem
            live_local = None
            kwargs = {}
            if susp is not None:
                system, live_local = self._views.get(cell.subsystem, susp, idx)
                if system is None:
                    # every local reader suspected: nothing to solve
                    return np.empty(0, dtype=np.int64), False
            elif self._takes_context:
                kwargs["context"] = ctx
            result = self._solver(system, ctx.unread, LazyRng(seed), **kwargs)
            active_local = np.asarray(result.active, dtype=np.int64)
            if live_local is not None:
                active_local = live_local[active_local]
            owned = active_local[cell.owned_reader_mask[active_local]]
            cut = bool(result.meta.get("budget_exhausted", False))
            return cell.all_reader_ids[owned], cut

    def _climb_cells(
        self, slot: int, cells: List[int]
    ) -> Tuple[np.ndarray, bool]:
        """GHC on every cell of *cells* in one lockstep climb; returns the
        owned active readers as global ids (and ``False``: GHC has no
        search budget).

        The climb is one GHC call over the batch, so it runs under one
        ``shard.solve`` span (``cells=`` the batch size, no ``cell``) with
        one ``solver.call`` span inside — the span tree of a per-cell
        solve; it emits no :class:`~repro.obs.events.SolverCall` event.
        """
        if self._stack is None:
            self._stack = CellStackKernel(self.partition.cells)
        with span("shard.solve", slot=slot, cells=len(cells)), span(
            "solver.call", solver="greedy_hill_climbing", cells=len(cells)
        ):
            ids = climb_cells(
                self._stack,
                [ctx.unread for ctx in self._contexts],
                [ctx.remaining_counts for ctx in self._contexts],
                cells,
            )
        return ids, False

    # ------------------------------------------------------------------
    def _owner_counts(self, readers: np.ndarray) -> np.ndarray:
        """Each reader's remaining covered-unread count in its owner cell:
        one searchsorted per owner cell."""
        cells = self.partition.cell_of_reader[readers]
        order = np.argsort(cells, kind="stable")
        groups, starts = np.unique(cells[order], return_index=True)
        vals = np.empty(len(readers), dtype=np.int64)
        for c, sel in zip(groups.tolist(), np.split(order, starts[1:])):
            cell = self.partition.cells[c]
            loc = np.searchsorted(cell.all_reader_ids, readers[sel])
            vals[sel] = self._contexts[c].remaining_counts[loc]
        return vals

    def _reconcile(self, active: np.ndarray) -> Tuple[np.ndarray, int]:
        """Drop readers until the sorted merged set *active* has no
        cross-cell conflict; returns ``(kept, repairs)``.

        Intra-cell pairs are the cell solver's responsibility and are never
        touched.  The rule: while a cross-cell conflict survives, drop the
        conflicted reader with the smallest owner-cell remaining count
        (ties to the highest global id — keep the longest-serving
        candidates).  One pass over the partition's conflict graph applies
        it exactly: visit the initially conflicted readers once in (count
        ascending, id descending) order and drop each that still has a live
        cross-cell neighbour.  The counts are fixed during the pass, and a
        reader visited and kept has no live neighbour — drops only remove
        neighbours — so it never becomes conflicted again; each reader
        dropped is therefore the current minimum conflicted reader.
        Deterministic: pure function of the merged set and the cells'
        unread state.
        """
        rows, cols = self.partition.active_conflicts(active)
        owner = self.partition.cell_of_reader[active]
        cross = owner[rows] != owner[cols]
        rows, cols = rows[cross], cols[cross]
        if rows.size == 0:
            return active, 0
        cand, starts = np.unique(rows, return_index=True)
        ends = np.append(starts[1:], len(rows))
        vals = self._owner_counts(active[cand])
        live = np.ones(len(active), dtype=bool)
        repairs = 0
        # active is ascending, so -cand orders ties by descending id
        for t in np.lexsort((-cand, vals)).tolist():
            if live[cols[starts[t]:ends[t]]].any():
                live[cand[t]] = False
                repairs += 1
        return active[live], repairs

    # ------------------------------------------------------------------
    def retire(self, confirmed: np.ndarray) -> None:
        """Mark the slot's confirmed-read tags retired in their owner cells.

        A tag is unread only in its owner cell (halo tags start read
        locally), so confirmed tags are bucketed by owner and each owner
        context retires its own — one searchsorted per live owner cell, not
        per cell over the whole confirmed set.  The driver updates its own
        unread mask.
        """
        tags = np.asarray(confirmed, dtype=np.int64).ravel()
        if tags.size == 0:
            return
        owners = self.partition.owner_of_tag[tags]
        keep = owners >= 0
        tags, owners = tags[keep], owners[keep]
        if tags.size == 0:
            return
        order = np.argsort(owners, kind="stable")
        tags, owners = tags[order], owners[order]
        groups, starts = np.unique(owners, return_index=True)
        bounds = np.append(starts, len(tags))
        for c, s, e in zip(groups, bounds[:-1], bounds[1:]):
            cell = self.partition.cells[int(c)]
            local = np.searchsorted(cell.tag_ids, tags[s:e])
            self._contexts[int(c)].retire_tags(local)
            if self._retired_logs is not None:
                # pool active: append to the cell's log so forked workers
                # can catch up before their next solve (pool_scope)
                self._retired_logs[int(c)].append(local)

    # ------------------------------------------------------------------
    def refresh(self, dead_ids) -> RefreshReport:
        """Apply confirmed permanent crashes as an incremental refresh.

        Delegates the re-bucketing and cell rebuilds to
        :meth:`~repro.shard.partition.ShardPartition.retire_readers`, then
        rebuilds exactly the dirtied cells' contexts from the driver's
        unread mask (already-read tags stay read; surviving cells keep
        their contexts object-identically; emptied cells own nothing, so
        their contexts hold zero unread), and — when a persistent pool is
        active — respawns it so workers fork the refreshed partition instead
        of their stale snapshot.  Degraded-subsystem caches are cleared: a
        rebuilt cell's local id map changed.
        """
        report = self.partition.retire_readers(dead_ids)
        if report.retired:
            self.retired_readers[list(report.retired)] = True
            self._views.clear()
            self._stack = None
            for idx in report.rebuilt_cells + report.emptied_cells:
                self._contexts[idx] = self._context(self.partition.cells[idx])
            if self._pool is not None:
                self._respawn_pool()
        return report

    def _respawn_pool(self) -> None:
        """Replace the persistent pool after a refresh: the old fork
        snapshot holds stale cells/contexts.  The new fork inherits the
        parent's fully-retired contexts, so logs and watermarks restart
        empty — there is nothing left to replay."""
        old, self._pool = self._pool, None
        old.close()
        self._retired_logs = [[] for _ in self.partition.cells]
        self._pool_applied = [0] * len(self.partition.cells)
        pool = WorkerPool(self.partition.spec.workers)
        pool.register(self._solve_cell_pool)
        pool.start()
        self._pool = pool

    # ------------------------------------------------------------------
    def best_singleton(
        self, suspected: Optional[np.ndarray] = None
    ) -> Optional[int]:
        """The owned reader covering the most unread tags across all cells
        (ties to the lowest global id), or ``None`` when nothing remains.

        Positive-progress guarantee: an unread tag's owner cell owns its
        lowest-id covering reader, so some owned reader always has a
        positive count while unread tags remain — and a lone active reader
        is always operational.  *suspected* (global mask) excludes readers
        currently under heartbeat suspicion; while every candidate is
        suspected the fallback returns ``None`` and the slot makes no
        progress (bounded by the policy's stall guard).
        """
        best: Optional[Tuple[int, int]] = None
        for cell, ctx in zip(self.partition.cells, self._contexts):
            if ctx.num_unread == 0:
                continue
            counts = np.where(cell.owned_reader_mask, ctx.remaining_counts, 0)
            if counts.size == 0:
                continue
            if suspected is not None:
                counts = np.where(
                    suspected[cell.all_reader_ids], 0, counts
                )
            cmax = int(counts.max())
            if cmax <= 0:
                continue
            gid = int(cell.all_reader_ids[int(np.argmax(counts == cmax))])
            if best is None or (-cmax, gid) < (-best[0], best[1]):
                best = (cmax, gid)
        return None if best is None else best[1]
