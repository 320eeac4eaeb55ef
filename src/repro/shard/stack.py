"""A partition's cells stacked side by side, with their unread state.

The shard runtime's cell state and the lockstep GHC climb
(:mod:`repro.shard.climb`) share one layout: the cells' local readers,
and apart from them their local tags, concatenated in cell order with
local ids ascending.  Stacked reader ``s`` is local reader
``s − reader_start[k]`` of cell ``k = cell_of[s]``; tags likewise.

Over it :class:`CellStack` keeps the covering schedule's per-cell state,
a pure function of the driver's unread mask: ``unread``, whether each
stacked tag is an *owned* tag of its cell still unread (halo tags never
are, so each tag's weight counts in exactly one cell), and ``remaining``,
how many of those each stacked reader covers.  Both come from the
partition's coverage relation (:attr:`~repro.shard.partition.
ShardPartition.cover_ids`), restricted to each owned tag's owner cell by
one ``searchsorted`` on ``cell * n + reader`` keys; no cell subsystem is
built.  A cell's slices equal a :class:`~repro.perf.slotdelta.
ScheduleContext` over its subsystem and unread slice (differential-tested
in ``tests/test_shard.py``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.shard.partition import _ranges


class CellStack:
    """The cells of *partition* stacked, each owning its tags unread in
    the driver's global *unread* mask.

    ``reader_start``/``tag_start`` are the ``(cells + 1,)`` offsets,
    ``cell_of`` each stacked reader's cell,
    ``global_ids``/``owned`` each stacked reader's global id and
    ownership, and ``cell_unread`` each cell's count of ``unread`` tags.
    ``pair_tags``/``pair_readers`` are the coverage pairs of owned tags
    with their covers in the owner cell, as global tag ids (ascending) and
    stacked reader positions; ``tag_pos`` maps a global tag id to its
    stacked position in its owner cell (``-1`` for none).
    """

    def __init__(self, partition, unread: np.ndarray) -> None:
        cells = partition.cells
        k = len(cells)
        sizes = [len(c.all_reader_ids) for c in cells]
        tag_sizes = [len(c.tag_ids) for c in cells]
        self.num_cells = k
        self.reader_start = np.cumsum([0] + sizes)
        self.tag_start = np.cumsum([0] + tag_sizes)
        self.cell_of = np.repeat(np.arange(k), sizes)
        # a partition has at least two cells, so nothing concatenates empty
        self.global_ids = np.concatenate([c.all_reader_ids for c in cells])
        self.owned = np.concatenate([c.owned_reader_mask for c in cells])
        self._reader_pos = np.full(len(partition.reader_positions), -1)
        owned = np.flatnonzero(self.owned)
        self._reader_pos[self.global_ids[owned]] = owned
        self._reader_keys = self.cell_of * len(self._reader_pos) + self.global_ids
        # each owned tag's stacked position in its owner cell: the stacked
        # tags are ascending in (cell, id), like their keys
        m = len(unread)
        owner = partition.owner_of_tag
        ids = np.flatnonzero(owner >= 0)
        tag_keys = np.repeat(np.arange(k), tag_sizes) * m
        tag_keys += np.concatenate([c.tag_ids for c in cells])
        pos = np.searchsorted(tag_keys, owner[ids] * m + ids)
        self.tag_pos = np.full(m, -1, dtype=np.int64)
        self.tag_pos[ids] = pos
        # the relation is tag-sorted, so pair_tags ascends
        at, self.pair_readers = self.cell_pairs(
            partition.cover_indptr, partition.cover_ids, ids, owner[ids]
        )
        self.pair_tags = ids[at]
        self.unread = np.zeros(self.tag_start[-1], dtype=bool)
        self.unread[pos] = unread[ids]
        self.remaining = np.bincount(
            self.pair_readers[unread[self.pair_tags]],
            minlength=len(self.global_ids),
        )
        self.cell_unread = np.bincount(owner[ids[unread[ids]]], minlength=k)

    def cell_pairs(self, indptr, ids, rows, cells):
        """The pairs of CSR ``(indptr, ids)`` in rows *rows* whose reader
        (the ``ids`` entry) sits in the matching cell of *cells*, as
        ``(index into rows, stacked reader position)``, row by row."""
        lens = indptr[rows + 1] - indptr[rows]
        at = np.repeat(np.arange(len(rows)), lens)
        keys = cells[at] * len(self._reader_pos)
        keys += ids[_ranges(indptr[rows], indptr[rows + 1])]
        pos = np.searchsorted(self._reader_keys, keys)
        pos[pos == len(self._reader_keys)] = 0
        hit = self._reader_keys[pos] == keys
        return at[hit], pos[hit]

    def _cells_of(self, pos: np.ndarray) -> np.ndarray:
        """The cell of each stacked tag position in *pos*."""
        return np.searchsorted(self.tag_start, pos, side="right") - 1

    def cell_unread_mask(self, idx: int) -> np.ndarray:
        """Cell *idx*'s slice of ``unread``, over its local tags."""
        return self.unread[self.tag_start[idx]:self.tag_start[idx + 1]]

    def owner_counts(self, readers: np.ndarray) -> np.ndarray:
        """The ``remaining`` count of each global reader id in *readers*
        in its owner cell (every id must be an alive owned reader)."""
        return self.remaining[self._reader_pos[readers]]

    def retire(self, tags) -> None:
        """Mark the global tag ids *tags* read in their owner cells, and
        decrement their covering readers' counts — one pass for all cells.
        Unowned and already-read tags and repeats are ignored."""
        tags = np.unique(np.asarray(tags, dtype=np.int64))
        tags = tags[self.tag_pos[tags] >= 0]
        tags = tags[self.unread[self.tag_pos[tags]]]
        if not tags.size:
            return
        pos = self.tag_pos[tags]
        self.unread[pos] = False
        self.cell_unread -= np.bincount(
            self._cells_of(pos), minlength=self.num_cells
        )
        pairs = _ranges(
            np.searchsorted(self.pair_tags, tags, side="left"),
            np.searchsorted(self.pair_tags, tags, side="right"),
        )
        self.remaining -= np.bincount(
            self.pair_readers[pairs], minlength=len(self.remaining)
        )

    def best_singleton(self, suspected: Optional[np.ndarray]) -> Optional[int]:
        """The owned reader with the largest positive ``remaining`` count,
        outside the global *suspected* mask (ties to the lowest global id),
        or ``None``."""
        counts = np.where(self.owned, self.remaining, 0)
        if suspected is not None:
            counts[suspected[self.global_ids]] = 0
        if not counts.size or counts.max() <= 0:
            return None
        return int(self.global_ids[counts == counts.max()].min())
