"""GHC climbed in lockstep over every live shard cell.

On the scale tier a slot's GHC runs once per live cell, and a cell climb
is about two steps on a few dozen readers, so solving the cells one call
at a time spends most of its time on per-call set-up.  This module climbs
them together: every cell's readers are stacked into one array (the
layout of :class:`~repro.shard.stack.CellStack`, whose state the climb
starts from), each climb step scores every cell's frontier in one batch,
and each cell adds its best reader or stops.

Each cell climbs exactly as
:func:`~repro.baselines.hillclimb.greedy_hill_climbing` would with the
cell's :class:`~repro.perf.slotdelta.ScheduleContext` (gain mode
``"weight"``, ``require_feasible=False``):

* its candidates are the readers not yet active that still cover an
  unread tag of the cell (``remaining_counts > 0``);
* a candidate's gain is the generalised-weight increment of
  :class:`~repro.perf.incremental.GeneralizedWeightClimber`, from the same
  carried state (``once``/``multi``/``well`` tag words per cell, the
  silenced and operational reader sets) and the same disjoint sum as
  :meth:`~repro.perf.backends.NumpyKernel.climb_weights_with`;
* the cell adds the first maximum of its segment of the frontier — the
  lowest local id among the best gains, the tie rule of the bound-pruned
  climb — and stops once its best gain is ≤ 0.

So the readers each cell activates equal its own GHC solve, step for step
(differential-tested in ``tests/test_shard.py``).  The scoring runs
through :class:`CellStackKernel`, a
:class:`~repro.perf.backends.NumpyKernel` over the stacked cells, so the
kernel's ``climb_weights_with`` entry point times and counts it like any
other climb.  The kernel is built from the partition's two relations —
the stack's coverage pairs and the conflict graph — so climbing builds
no cell subsystem.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.perf.backends import NumpyKernel
from repro.perf.backends.numpy_batched import _row_counts
from repro.perf.packed import _bytes_to_words
from repro.shard.partition import _csr, _ranges
from repro.shard.stack import CellStack


class CellStackKernel(NumpyKernel):
    """The climb kernel over the cells of a :class:`~repro.shard.stack.
    CellStack`, in its layout, built from *partition*'s two relations
    without any cell subsystem.

    A stacked reader's coverage row holds the bits of the owned tags it
    covers in its cell (the stack's pairs), at their local ids, with
    every row as wide as the widest cell.  Halo-tag bits are left out:
    every gain term is masked by the cell's ``unread`` tags, and halo tags
    are never unread there.  A reader silences only readers of its own
    cell — the conflict graph's pairs within the cell with ``d² <= R_j²``,
    reader *i* in reader *j*'s disk — kept as sparse pairs in both
    directions.

    Only :meth:`~repro.perf.backends.NumpyKernel.climb_weights_with` is
    served, with a :class:`_LockstepState` as the climb; the other batch
    methods need a single system and are not defined on a stack.
    """

    def __init__(self, stack: CellStack, partition) -> None:
        self.cell_of = stack.cell_of
        self.num_readers = n = len(stack.global_ids)
        self.num_words = max(int(np.diff(stack.tag_start).max() + 63) // 64, 1)
        local = stack.tag_pos[stack.pair_tags]
        local -= stack.tag_start[stack.cell_of[stack.pair_readers]]
        words = np.zeros(n * self.num_words, dtype=np.uint64)
        bits = np.left_shift(np.uint64(1), (local % 64).astype(np.uint64))
        np.bitwise_or.at(
            words, stack.pair_readers * self.num_words + local // 64, bits
        )
        self.words = words.reshape(n, self.num_words)
        # conflict pairs within a cell where reader i lies in j's disk
        # (in_interference_range[i, j])
        i, j = stack.cell_pairs(
            partition.conflict_indptr, partition.conflict_ids,
            stack.global_ids, stack.cell_of,
        )
        rpos, R = partition.reader_positions, partition.interference_radii
        near = stack.global_ids[j]
        diff = rpos[stack.global_ids[i]] - rpos[near]
        inside = (diff * diff).sum(axis=-1) <= R[near] * R[near]
        i, j = i[inside], j[inside]
        #: readers each stacked reader silences, and readers silencing it
        self.silencees = _csr(j, i, n)
        self.silencers = _csr(i, j, n)

    def _climb_scalar(self, climb, cands):
        return self._climb_batch(climb, np.asarray(cands, dtype=np.int64))

    def _climb_batch(self, climb, cands):
        """Each candidate's weight in its own cell, the disjoint sum of
        :meth:`NumpyKernel._climb_batch` with every tag word read from the
        candidate's cell row."""
        cell = self.cell_of[cands]
        c = self.words[cands]
        well = climb.well[cell]
        fresh = _row_counts(c & climb.fresh_zone()[cell])
        gains = np.where(climb.silenced[cands], 0, fresh) - _row_counts(c & well)
        # each operational i that a candidate silences loses |E_i ∖ c|
        op = np.flatnonzero(climb.operational)
        if op.size:
            indptr, ids = self.silencers
            by = ids[_ranges(indptr[op], indptr[op + 1])]
            lost_i = np.repeat(op, indptr[op + 1] - indptr[op])
            pos = np.full(self.num_readers, -1, dtype=np.int64)
            pos[cands] = np.arange(len(cands))
            keep = pos[by] >= 0
            lost_i, by = lost_i[keep], by[keep]
            if lost_i.size:
                lost = _row_counts(
                    self.words[lost_i]
                    & climb.well[self.cell_of[lost_i]]
                    & ~self.words[by]
                )
                np.subtract.at(gains, pos[by], lost)
        return gains + climb.cell_weights()[cell]


class _LockstepState:
    """The carried climb state of every stacked cell at once: tag words
    per cell (``once``, ``multi``, ``well``, ``unread``) and reader flags
    per stacked reader (``active``, ``silenced``, ``operational``) — the
    fields of :class:`~repro.perf.incremental.GeneralizedWeightClimber`,
    one row or entry per cell or reader."""

    def __init__(self, kernel: CellStackKernel, unread_words: np.ndarray):
        shape = unread_words.shape
        self.unread = unread_words
        self.once = np.zeros(shape, dtype=np.uint64)
        self.multi = np.zeros(shape, dtype=np.uint64)
        self.well = np.zeros(shape, dtype=np.uint64)
        n = kernel.num_readers
        self.active = np.zeros(n, dtype=bool)
        self.silenced = np.zeros(n, dtype=bool)
        self.operational = np.zeros(n, dtype=bool)

    def fresh_zone(self) -> np.ndarray:
        """Per cell, the unread tags no active reader covers."""
        return self.unread & ~(self.once | self.multi)

    def cell_weights(self) -> np.ndarray:
        """Per cell, the generalised weight of its active set."""
        return _row_counts(self.well)

    def add(self, kernel: CellStackKernel, readers: np.ndarray) -> None:
        """Commit one reader per cell (distinct cells), as
        :meth:`GeneralizedWeightClimber.add` does for one."""
        cell = kernel.cell_of[readers]
        c = kernel.words[readers]
        once, multi = self.once[cell], self.multi[cell]
        zone = c & self.unread[cell] & ~(once | multi)
        well = self.well[cell] & ~c
        indptr, ids = kernel.silencees
        starts, ends = indptr[readers], indptr[readers + 1]
        hits = ids[_ranges(starts, ends)]
        row = np.repeat(np.arange(len(readers)), ends - starts)
        lost = self.operational[hits]
        if lost.any():
            np.bitwise_and.at(well, row[lost], ~kernel.words[hits[lost]])
        self.operational[hits] = False
        self.silenced[hits] = True
        live = ~self.silenced[readers]
        well[live] |= zone[live]
        self.operational[readers[live]] = True
        self.well[cell] = well
        multi = multi | (once & c)
        self.once[cell] = (once | c) & ~multi
        self.multi[cell] = multi
        self.active[readers] = True


def climb_cells(
    kernel: CellStackKernel, stack: CellStack, cells: Sequence[int]
) -> np.ndarray:
    """GHC on each cell of *cells*, in lockstep, from the state of
    *stack* (the one *kernel* was built over); returns the owned active
    readers of all of them as global ids, cell by cell.  Cells outside
    *cells* do not climb.
    """
    # each cell's local tag t sits at bit t of that cell's state row; a
    # boolean mask fills row by row, so the stacked flags land in order
    flat = np.zeros((stack.num_cells, kernel.num_words * 64), dtype=bool)
    lengths = np.diff(stack.tag_start)[:, None]
    flat[np.arange(flat.shape[1]) < lengths] = stack.unread
    packed = np.packbits(flat, axis=1, bitorder="little")
    state = _LockstepState(kernel, _bytes_to_words(packed, kernel.num_words))
    climbing = np.zeros(stack.num_cells, dtype=bool)
    climbing[list(cells)] = True
    eligible = (stack.remaining > 0) & climbing[kernel.cell_of]
    while True:
        cands = np.flatnonzero(eligible)
        if not cands.size:
            break
        seg = kernel.cell_of[cands]
        gains = kernel.climb_weights_with(state, cands)
        gains -= state.cell_weights()[seg]
        starts = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
        best = np.maximum.reduceat(gains, starts)
        lengths = np.diff(np.r_[starts, cands.size])
        tops = np.flatnonzero(gains == np.repeat(best, lengths))
        # the first maximum of each segment: the cell's lowest local id
        firsts = tops[np.r_[True, seg[tops][1:] != seg[tops][:-1]]]
        done = seg[starts][best <= 0]
        if done.size:
            climbing[done] = False
            eligible &= climbing[kernel.cell_of]
        winners = cands[firsts][best > 0]
        if winners.size:
            state.add(kernel, winners)
            eligible[winners] = False
    return stack.global_ids[np.flatnonzero(state.active & stack.owned)]
