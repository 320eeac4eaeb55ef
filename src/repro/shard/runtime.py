"""Per-slot execution engine for sharded covering schedules.

:class:`ShardRuntime` owns the mutable cross-slot state of a sharded solve,
one :class:`~repro.shard.stack.CellStack`: each cell's **owned** unread
tags (halo tags start read locally, so each tag's weight is credited to
exactly one cell) and its readers' remaining counts.  Every slot it

1. solves each *live* cell (one with owned unread tags left) independently
   on its halo-augmented subsystem with the run's one solver, bound at
   construction — in process, or concurrently on the persistent
   :class:`~repro.perf.pool.WorkerPool` of :meth:`ShardRuntime.pool_scope`
   when the dense sharded driver holds one (``spec.workers``).  Both paths
   build the same ``(slot, cell, seed, suspicion, unread bits)`` payload
   per live cell, with child seeds drawn from the driver's stream and the
   cell's unread slice packed into bits, and a solve depends on nothing
   else, so worker count never changes results;
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
local readers (:class:`~repro.model.system.ReducedSystems`), with a fresh
schedule context over it, as a calm cell has over its subsystem.  The mask
is part of the per-cell payload, so the degraded world is a pure function
of ``(plan.seed, slot)`` and worker count still cannot change results.
Confirmed permanent crashes are applied by :meth:`ShardRuntime.refresh`:
the partition re-buckets orphaned tags and rebuilds dirtied cells
(:meth:`~repro.shard.partition.ShardPartition.retire_readers`), the runtime
restacks the cell state from the driver's unread mask, and an active
persistent pool is respawned so workers fork the refreshed partition.

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
from repro.perf.pool import WorkerPool
from repro.perf.slotdelta import ScheduleContext
from repro.shard.climb import CellStackKernel, climb_cells
from repro.shard.partition import RefreshReport, ShardPartition
from repro.shard.stack import CellStack
from repro.util.rng import LazyRng


class ShardRuntime:
    """Cross-slot state and per-slot solve/merge logic for one partition.

    Parameters
    ----------
    partition:
        The :class:`~repro.shard.partition.ShardPartition` to run over.
    unread:
        The driver's live global unread mask (its coverable-unread
        population), held by reference and never written here.  The cell
        state starts from it restricted to each cell's owned tags, and
        :meth:`refresh` restacks it from there, so the driver must retire
        confirmed tags in it.
    solver:
        The one-shot solver every cell solve of the run calls.
    takes_context:
        Whether *solver* accepts a ``context`` keyword
        (:func:`repro.core.mcs.accepts_context`, computed once by the
        driver); cell solves then receive a
        :class:`~repro.perf.slotdelta.ScheduleContext` over their cell's
        unread slice.
    lockstep:
        Whether *solver* is the registry's plain ``"ghc"``: slots then
        climb every cell with no suspected reader in one lockstep GHC
        (:func:`repro.shard.climb.climb_cells`), which activates exactly
        the readers the per-cell solves would.
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
        self._restack()
        #: Readers retired by :meth:`refresh` (confirmed permanent crashes).
        self.retired_readers = np.zeros(
            len(partition.reader_positions), dtype=bool
        )
        # degraded per-cell subsystems, keyed by (cell, suspicion pattern);
        # per-process (workers fill their own copies deterministically)
        self._views = ReducedSystems()
        # the persistent pool (active only inside pool_scope)
        self._pool: Optional[WorkerPool] = None

    def _restack(self) -> None:
        """Stack the cell state from the driver's unread mask, and the
        lockstep climb's kernel over it, in set-up."""
        self._stack = CellStack(self.partition, self._unread)
        self._kernel = (
            CellStackKernel(self._stack, self.partition) if self._lockstep else None
        )

    # ------------------------------------------------------------------
    @property
    def num_unread(self) -> int:
        """Unread owned tags summed over cells."""
        return int(self._stack.cell_unread.sum())

    def live_cells(self) -> List[int]:
        """Indices of cells with owned unread tags remaining, ascending."""
        return np.flatnonzero(self._stack.cell_unread).tolist()

    # ------------------------------------------------------------------
    @contextmanager
    def pool_scope(self):
        """Hold one persistent :class:`~repro.perf.pool.WorkerPool` for
        every slot solved inside the ``with`` block.

        The workers fork *now* and inherit the partition — cells and
        their subsystems — as copy-on-write pages; afterwards each
        :meth:`solve_slot` ships only the per-cell payloads, which carry
        everything a cell solve reads of the cell state.  Exiting the
        scope — normally or through a solver exception — terminates and
        joins the workers, so no child can leak.

        Yields ``None`` and holds no pool — :meth:`solve_slot` then solves
        the live cells in an in-process loop — whenever the pool would run
        serially: one worker, inside a pool worker (the nested-parallelism
        rule of :mod:`repro.perf.parallel`, counted and warned once by the
        pool), or on a platform without ``fork`` (warned once by the
        pool's :meth:`~repro.perf.pool.WorkerPool.start`).  A serial pool
        would only pickle every payload for nothing.  Only the dense
        sharded driver enters this scope; the array-first driver always
        solves in process.
        """
        pool = WorkerPool(self.partition.spec.workers)
        if pool.mode == "serial":
            pool.start()  # starts nothing; reports a missing fork
            yield None
            return
        try:
            self._fork(pool)
            yield pool
        finally:
            # close self._pool, not the local: refresh() may have respawned
            pool, self._pool = self._pool, None
            if pool is not None:
                pool.close()

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
        susp = [self._local_suspicion(idx, suspected) for idx in live]
        # a lockstep runtime climbs every calm cell at once; cells with a
        # suspected reader solve a degraded subsystem one by one
        calm = [i for i, s in zip(live, susp) if s is None and self._lockstep]
        payloads = [
            (slot, idx, int(seed), s, np.packbits(self._stack.cell_unread_mask(idx)))
            for idx, seed, s in zip(live, seeds, susp)
            if s is not None or not self._lockstep
        ]
        if self._pool is not None:
            parts = self._pool.map(self._solve_cell, payloads)
        else:
            parts = [self._solve_cell(p) for p in payloads]
        if calm:
            parts.append(self._climb_cells(slot, calm))
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
    def _solve_cell(self, payload) -> Tuple[np.ndarray, bool]:
        """Worker body: solve one cell from its ``(slot, cell, seed,
        suspicion, unread bits)`` payload with its own seeded rng under a
        ``shard.solve`` span; returns the owned active readers as global
        ids and whether the solver reported its search cut off
        (``meta['budget_exhausted']``, set by PTAS and exact).

        The rng is a :class:`~repro.util.rng.LazyRng`: a solver that draws
        sees ``default_rng(seed)``'s stream, and the deterministic solvers
        (GHC, PTAS, exact, centralized, distributed) never build it.

        It reads the cell state from the payload alone, so it runs alike
        in a pool worker, inline, or in the supervisor's last-resort
        serial replay.  A local suspicion mask (``None`` for an unaffected
        cell) routes the solve through a degraded subsystem over the
        unsuspected local readers.  A context-taking solver gets a fresh
        :class:`~repro.perf.slotdelta.ScheduleContext` over the unpacked
        unread slice and the system it solves, degraded or not.
        """
        slot, idx, seed, susp, bits = payload
        cell = self.partition.cells[idx]
        with span(
            "shard.solve",
            slot=slot,
            cell=idx,
            readers=len(cell.all_reader_ids),
            halo=len(cell.halo_reader_ids),
        ):
            unread = np.unpackbits(bits, count=len(cell.tag_ids)).view(bool)
            system = cell.subsystem
            live_local = None
            kwargs = {}
            if susp is not None:
                system, live_local = self._views.get(cell.subsystem, susp, idx)
                if system is None:
                    # every local reader suspected: nothing to solve
                    return np.empty(0, dtype=np.int64), False
            if self._takes_context:
                kwargs["context"] = ScheduleContext(system, unread)
            result = self._solver(system, unread, LazyRng(seed), **kwargs)
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
        with span("shard.solve", slot=slot, cells=len(cells)), span(
            "solver.call", solver="greedy_hill_climbing", cells=len(cells)
        ):
            ids = climb_cells(self._kernel, self._stack, cells)
        return ids, False

    # ------------------------------------------------------------------
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
        vals = self._stack.owner_counts(active[cand])
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
        """Mark the slot's confirmed-read tags retired in their owner cells
        (:meth:`~repro.shard.stack.CellStack.retire`: one vectorised pass
        over every owner cell).  The driver updates its own unread mask.
        """
        self._stack.retire(confirmed)

    # ------------------------------------------------------------------
    def refresh(self, dead_ids) -> RefreshReport:
        """Apply confirmed permanent crashes as an incremental refresh.

        Delegates the re-bucketing and cell rebuilds to
        :meth:`~repro.shard.partition.ShardPartition.retire_readers`, then
        restacks the cell state from the driver's unread mask
        (already-read tags stay read; emptied cells own nothing, so they
        hold zero unread), and — when a persistent pool is active —
        respawns it so workers fork the refreshed partition instead of
        their stale snapshot.  Degraded-subsystem caches are cleared: a
        rebuilt cell's local id map changed.
        """
        report = self.partition.retire_readers(dead_ids)
        if report.retired:
            self.retired_readers[list(report.retired)] = True
            self._views.clear()
            self._restack()
            if self._pool is not None:
                self._respawn_pool()
        return report

    def _respawn_pool(self) -> None:
        """Replace the persistent pool after a refresh: the old fork
        snapshot holds stale cells."""
        old, self._pool = self._pool, None
        old.close()
        self._fork(WorkerPool(self.partition.spec.workers))

    def _fork(self, pool: WorkerPool) -> None:
        """Start *pool*'s workers on :meth:`_solve_cell` and hold it.  The
        cells' coverage is packed first, so every worker inherits the
        packing instead of redoing it in its first solve of each cell."""
        for cell in self.partition.cells:
            cell.subsystem.packed_coverage  # built on first access
        pool.register(self._solve_cell)
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
        return self._stack.best_singleton(suspected)
