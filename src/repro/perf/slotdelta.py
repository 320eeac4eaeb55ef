"""Cross-slot incremental state for the greedy covering schedule.

The MCS driver (Definitions 4–5) re-runs a one-shot solver every time-slot
while the unread-tag population only ever *shrinks*.  The packed kernels
make each slot fast in isolation; this module makes the slot *sequence* cheap by
maintaining, across slots:

* the live-tag mask as one boolean array, updated by **clearing the served
  tags** instead of re-deriving it from scratch each slot;
* per-reader remaining covered-unread counts, decremented by the served
  tags' coverage columns.  A reader whose count hits zero is **retired**: it
  covers no unread tag, so its solo weight is zero and (for a feasible set)
  adding it never changes the weight — solvers may drop it from their
  candidate pools (see ``docs/performance.md``, "Cross-slot schedule
  context");
* the previous slot's active set, from which :meth:`warm_start` derives a
  still-live feasible incumbent for the exact branch-and-bound.

Every greedy covering schedule owns one :class:`ScheduleContext` (one per
cell when sharded) and threads it to solvers that accept a ``context``
keyword.  The context is *advisory*: a solver that ignores it still returns
correct results, just without the pruning.  The solver's ``unread`` argument
is the one unread mask its weight engines pack (the driver passes
:attr:`ScheduleContext.unread` itself); the context must describe that same
mask.

Layering: like the rest of :mod:`repro.perf`, this module imports only
NumPy and duck-types the system object (``coverage`` boolean matrix plus
the :class:`~repro.perf.packed.PackedCoverage` at ``packed_coverage``), so
it sits below :mod:`repro.model`.
"""

from __future__ import annotations

from typing import Any, List, Optional

import numpy as np


class ScheduleContext:
    """Incremental unread-mask / reader-retirement state for one schedule.

    Parameters
    ----------
    system:
        Object exposing ``coverage`` (an ``(m, n)`` boolean matrix) and
        ``packed_coverage`` (a :class:`~repro.perf.packed.PackedCoverage`).
    unread:
        Initial boolean unread mask (the driver passes the coverable unread
        population); defaults to all tags unread.  Copied — the caller's
        array is never mutated.
    """

    def __init__(self, system: Any, unread: Optional[np.ndarray] = None):
        coverage = np.asarray(system.coverage, dtype=bool)
        m = coverage.shape[0]
        if unread is None:
            self._unread = np.ones(m, dtype=bool)
        else:
            self._unread = np.array(unread, dtype=bool, copy=True)
            if self._unread.shape != (m,):
                raise ValueError(f"unread mask must have shape ({m},)")
        self._coverage = coverage
        self._num_unread = int(self._unread.sum())
        # Per-reader count of unread tags covered; equals the reader's solo
        # weight, so count == 0  <=>  retired.  Popcounted over the packed
        # words, which also builds the system's packing here, in set-up.
        self._remaining = system.packed_coverage.covered_counts(self._unread)
        self._prev_active: Optional[np.ndarray] = None

    # -- unread-population views -------------------------------------------
    @property
    def unread(self) -> np.ndarray:
        """The live boolean unread mask.

        This is the maintained array itself, not a copy — treat it as
        read-only; it is updated in place by :meth:`retire_tags`.
        """
        return self._unread

    @property
    def num_unread(self) -> int:
        """Count of unread tags remaining."""
        return self._num_unread

    # -- reader retirement --------------------------------------------------
    @property
    def remaining_counts(self) -> np.ndarray:
        """Per-reader counts of still-unread covered tags (read-only view
        semantics; updated in place by :meth:`retire_tags`)."""
        return self._remaining

    def is_live(self, reader: int) -> bool:
        """Whether *reader* still covers at least one unread tag."""
        return bool(self._remaining[reader] > 0)

    @property
    def has_retired(self) -> bool:
        """Whether any reader has been retired yet (False on slot 1, so
        solvers can skip building filtered views of cached structures)."""
        return bool((self._remaining == 0).any())

    def live_readers(self) -> np.ndarray:
        """Ids of readers that still cover at least one unread tag."""
        return np.flatnonzero(self._remaining > 0)

    # -- per-slot updates ---------------------------------------------------
    def retire_tags(self, tags) -> None:
        """Mark *tags* (indices into the tag population) as read.

        Clears them in the unread mask and decrements every covering reader's
        remaining count.  Tags already read, and repeats within *tags*, are
        ignored (idempotent), so the counts never go negative.
        """
        tags = np.unique(np.asarray(tags, dtype=np.int64))
        if tags.size == 0:
            return
        fresh = tags[self._unread[tags]]
        if fresh.size == 0:
            return
        self._remaining -= self._coverage[fresh].sum(axis=0)
        self._unread[fresh] = False
        self._num_unread -= int(fresh.size)

    def note_active(self, active) -> None:
        """Record the slot's committed active set for the next slot's
        :meth:`warm_start`."""
        self._prev_active = np.array(active, dtype=np.int64, copy=True)

    def warm_start(self) -> List[int]:
        """The previous slot's active readers that are still live, sorted.

        A subset of a feasible set is feasible, so this is a valid warm
        incumbent for the exact branch-and-bound (readers retired since the
        last slot contribute nothing and are dropped).
        """
        if self._prev_active is None:
            return []
        return sorted(
            int(r) for r in self._prev_active if self._remaining[r] > 0
        )

    # -- invariants ---------------------------------------------------------
    def check(self) -> None:
        """Assert the incremental state matches a from-scratch recompute
        (test hook)."""
        expect_counts = self._coverage[self._unread].sum(axis=0)
        if not np.array_equal(self._remaining, expect_counts):
            raise AssertionError("remaining counts diverged from coverage")
        if self._num_unread != int(self._unread.sum()):
            raise AssertionError("num_unread diverged from unread mask")
