"""The ``numpy`` backend: candidate frontiers as 2-D ``uint64`` matrices.

The scalar path answers a frontier of *k* candidates with *k* separate
big-int walks; this backend answers it with one popcount over a
``(k, ceil(m/64))`` ``uint64`` matrix — the candidate rows of the system's
packed coverage, combined word-wise with the solver's ``once``/``multi``/
``unread`` state (unpacked once per call via
:func:`~repro.perf.packed.bigint_to_words`).

Bit-identity with the ``pure`` backend is structural: both compute the same
word-wise boolean algebra over the same packed words, so the per-candidate
integers agree exactly (property-tested in ``tests/test_backends.py``).
Three rewrites keep the batched path fast:

* the feasible-rule weight uses the identity
  ``(once | c) & ~(multi | (once & c)) == (once ^ c) & ~multi`` — pure
  boolean algebra, so the integers are unchanged while the op count per
  frontier drops from five word-matrix passes to two;
* solo weights are answered from a per-unread-mask table of **all**
  readers' counts, memoised on the kernel — the branch-and-bound ordering
  pass hits the same unread mask dozens of times per MCS slot, so the
  table amortises to a fancy-index lookup;
* the generalised (climb) weight is a disjoint sum over the operational
  readers ``i`` of the active set ``A``: an exactly-once tag has one
  coverer, so with ``E_i = cover_i & once & unread`` and their union
  ``well`` (carried by the climber, ``w(A) = |well|``), every candidate
  ``r`` scores ``|well| − |c_r & well| + [nothing in A silences r]·fresh_r
  − Σ_{operational i silenced by r} |E_i & ~c_r|``, where ``fresh_r`` is
  the climber's maintained count of unread tags no active reader covers.
  A frontier of *k* candidates costs one ``(k, W)`` pass plus one row per
  (candidate, silenced operational reader) pair; no other active reader's
  row is touched.

Tiny frontiers — below :data:`BATCH_MIN` candidates — run on big-ints
instead (the inherited scalar path; for the climb, the same state formula
one candidate at a time), where big-int arithmetic beats array dispatch
overhead.  The returned integers are identical either way.  GHC also uses
:data:`BATCH_MIN` as the size of the first batch it scores exactly when it
prunes a wide frontier by the fresh-count bound, and scores frontiers
below it whole.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.perf.backends.pure import PureKernel
from repro.perf.cache import silencee_bits
from repro.perf.packed import bigint_to_bool, bigint_to_words, iter_bits, popcount_words
from repro.util.compat import bit_count

#: Frontier size below which the scalar path is used, and GHC's first
#: exactly scored batch (see module docstring).  Measured crossover on
#: 19-word (1200-tag) instances: the batched feasible-rule weight overtakes
#: the scalar walk at ~32 candidates.
BATCH_MIN = 32


def _row_counts(rows: np.ndarray) -> np.ndarray:
    """Per-row popcount of a ``(k, W)`` word matrix, as ``int64``."""
    return popcount_words(rows).sum(axis=1, dtype=np.int64)


class NumpyKernel(PureKernel):
    """Vectorised kernel over the packed coverage word matrix."""

    name = "numpy"

    def __init__(self, system) -> None:
        super().__init__(system)
        packed = system.packed_coverage
        self._words = packed.words  # (n, W) uint64, read-only
        self._num_words = packed.num_words
        self._conflict_bool = np.asarray(system.conflict, dtype=bool)
        self._silencer_bool = np.asarray(system.in_interference_range, dtype=bool)
        self._words_memo = {}
        self._solo_memo = {}

    def _to_words(self, value: int) -> np.ndarray:
        # The same big-int masks recur across calls — the unread mask is
        # constant for a whole MCS slot, once/multi for a whole frontier —
        # so the unpacked rows are memoised (small bound: the working set
        # per slot is a handful of masks).
        value = int(value)
        memo = self._words_memo
        words = memo.get(value)
        if words is None:
            if len(memo) >= 64:
                memo.clear()
            words = bigint_to_words(value, self._num_words)
            words.flags.writeable = False
            memo[value] = words
        return words

    def _solo_table(self, unread_bits: int) -> np.ndarray:
        """``popcount(mask & unread)`` for every reader, memoised per
        unread mask — the mask is constant across a slot's many ordering
        passes, so the full-table pass amortises to a lookup."""
        key = int(unread_bits)
        memo = self._solo_memo
        table = memo.get(key)
        if table is None:
            if len(memo) >= 16:
                memo.clear()
            u = self._to_words(key)
            table = _row_counts(self._words & u)
            table.flags.writeable = False
            memo[key] = table
        return table

    # -- weight batches ----------------------------------------------------
    def solo_weights(self, unread_bits, candidates):
        """Batched ``popcount(mask & unread)``, served from the memoised
        per-unread-mask table."""
        cands = [int(c) for c in candidates]
        if not cands:
            return np.zeros(0, dtype=np.int64)
        return self._solo_table(unread_bits)[cands]

    def oracle_weights_with(self, once, multi, unread_bits, candidates):
        """Feasible-rule ``w(X ∪ {r})`` for the whole frontier in one
        word-matrix pass."""
        cands = [int(c) for c in candidates]
        if len(cands) < BATCH_MIN:
            return super().oracle_weights_with(once, multi, unread_bits, cands)
        c = self._words[cands]
        once_w = self._to_words(once)
        # (once | c) & ~(multi | (once & c))  ==  (once ^ c) & ~multi:
        # adding c flips exactly-once coverage where c overlaps once, and
        # creates it where c is fresh — XOR — while the already-multi zone
        # never counts again.  Two passes instead of five, same bits.
        zone = self._to_words(~int(multi) & int(unread_bits))
        return _row_counts((c ^ once_w) & zone)

    def climb_weights_with(self, climb, candidates):
        """Generalised-rule ``w(active ∪ {r})`` for the frontier, scored
        from the climber's carried state as the disjoint sum of the module
        docstring: no active reader's row is gathered except those the
        candidates silence."""
        cands = [int(c) for c in candidates]
        if len(cands) < BATCH_MIN:
            return self._climb_scalar(climb, cands)
        n = self.system.num_readers
        c = self._words[cands]
        well = self._to_words(climb.well)
        silenced = bigint_to_bool(climb.silenced, n)[cands]
        gains = np.where(silenced, 0, climb.fresh[cands]) - _row_counts(c & well)
        # each operational i that r silences loses |E_i ∖ c_r|, where
        # E_i = cover_i ∩ well: sparse over the (silenced, candidate) pairs
        op = np.flatnonzero(bigint_to_bool(climb.operational, n))
        lost_i, by_r = np.nonzero(self._silencer_bool[np.ix_(op, cands)])
        if lost_i.size:
            lost = _row_counts(self._words[op[lost_i]] & well & ~c[by_r])
            np.subtract.at(gains, by_r, lost)
        return gains + climb.current_weight()

    def _climb_scalar(self, climb, cands):
        """The same disjoint sum on big-ints, one candidate at a time —
        cheaper than array dispatch for a handful of candidates."""
        well = climb.well
        fresh_zone = climb.fresh_zone()
        base = bit_count(well)
        masks, silencees = self._masks, silencee_bits(self.system)
        out = []
        for r in cands:
            c = masks[r]
            w = base - bit_count(c & well)
            if not climb.silenced >> r & 1:
                w += bit_count(c & fresh_zone)
            for i in iter_bits(silencees[r] & climb.operational):
                w -= bit_count(masks[i] & well & ~c)
            out.append(w)
        return np.array(out, dtype=np.int64)

    def new_coverage_counts(self, once, multi, unread_bits, candidates):
        """Batched collision-naive fresh-coverage counts."""
        cands = [int(c) for c in candidates]
        if len(cands) < BATCH_MIN:
            return super().new_coverage_counts(once, multi, unread_bits, cands)
        fresh_zone = self._to_words(~(once | multi) & int(unread_bits))
        return _row_counts(self._words[cands] & fresh_zone)

    # -- structure batches -------------------------------------------------
    # covered_counts is inherited: the historical scan is already the
    # vectorised popcount over the packed words.

    def filter_compatible(self, candidates, blocked) -> List[int]:
        """Order-preserving compatibility filter via one boolean
        conflict-submatrix ``any`` reduction."""
        cands = [int(c) for c in candidates]
        blocked = [int(b) for b in blocked]
        if not blocked or len(cands) < BATCH_MIN:
            return super().filter_compatible(cands, blocked)
        bad = self._conflict_bool[np.ix_(cands, blocked)].any(axis=1)
        return [c for c, hit in zip(cands, bad) if not hit]
