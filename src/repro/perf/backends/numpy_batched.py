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
  coverer, so with ``E_i = cover_i & once & unread``, ``S = Σ|E_i|`` and
  ``F = unread & ~(once | multi)``, every candidate ``r`` scores
  ``S − |c_r & ⋃E_i| + [nothing in A silences r]·|c_r & F|
  − Σ_{i silenced by r} (|E_i| − |E_i & c_r|)`` — two ``(k, W)`` passes,
  one ``(|A|, W)`` pass and a sparse correction per (candidate, silenced
  reader) pair, O((k + |A|)·W) per climb step instead of O(|A|·k·W).

Tiny frontiers — below :data:`BATCH_MIN` candidates — are delegated to the
inherited scalar path, where big-int arithmetic beats array dispatch
overhead; the returned integers are identical either way, so the cutoff is
a pure wall-clock knob.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.perf.backends.pure import PureKernel
from repro.perf.packed import bigint_to_words, popcount_words

try:  # pragma: no cover - numpy is a hard dependency of the library today,
    # but the selection layer (repro.perf.backends) is specified to degrade
    # gracefully, so availability is probed through this module flag.
    import numpy  # noqa: F401

    _NUMPY_OK = True
except ImportError:  # pragma: no cover
    _NUMPY_OK = False

#: Frontier size below which the scalar path is used (see module docstring).
#: Measured crossover on 19-word (1200-tag) instances: the batched
#: feasible-rule weight overtakes the scalar walk at ~32 candidates.
BATCH_MIN = 32


def _row_counts(rows: np.ndarray) -> np.ndarray:
    """Per-row popcount of a ``(k, W)`` word matrix, as ``int64``."""
    return popcount_words(rows).sum(axis=1, dtype=np.int64)


def numpy_batching_available() -> bool:
    """Whether the ``numpy`` backend can run in this process."""
    return _NUMPY_OK


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

    def climb_weights_with(
        self, once, multi, active, active_bits, unread_bits, candidates
    ):
        """Generalised-rule ``w(active ∪ {r})`` for the whole frontier, as
        the disjoint sum over operational readers of the module docstring
        (*once*/*multi* are the climber's coverage masks of *active*)."""
        cands = [int(c) for c in candidates]
        if len(cands) < BATCH_MIN:
            return super().climb_weights_with(
                once, multi, active, active_bits, unread_bits, cands
            )
        c = self._words[cands]
        act = np.asarray(active, dtype=np.int64)
        sil = self._silencer_bool  # sil[i, j]: reader j silences reader i
        zone = ~int(multi) & int(unread_bits)
        # E_i of each reader not silenced within the active set; the E_i
        # are disjoint (an exactly-once tag has one coverer).
        op = act[~sil[np.ix_(act, act)].any(axis=1)]
        e = self._words[op] & self._to_words(int(once) & zone)
        e_sizes = _row_counts(e)
        # Adding r moves c_r ∩ ⋃E_i to the multi zone, and reads c_r ∩ F
        # unless an active reader silences r.
        weights = e_sizes.sum() - _row_counts(c & np.bitwise_or.reduce(e, axis=0))
        fresh = _row_counts(c & self._to_words(~int(once) & zone))
        weights += np.where(sil[np.ix_(cands, act)].any(axis=1), 0, fresh)
        # Each reader i that r silences loses what is left of E_i,
        # |E_i| − |E_i ∩ c_r|: sparse over the (silenced, candidate) pairs.
        lost_i, by_r = np.nonzero(sil[np.ix_(op, cands)])
        lost = e_sizes[lost_i] - _row_counts(e[lost_i] & c[by_r])
        np.subtract.at(weights, by_r, lost)
        return weights

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
