"""The solver kernel: candidate frontiers as 2-D ``uint64`` matrices.

Every solver's hot loop is per-candidate weight evaluation over the packed
coverage masks.  :class:`NumpyKernel` answers a frontier of *k* candidates
with one popcount over a ``(k, ceil(m/64))`` ``uint64`` matrix — the
candidate rows of the system's packed coverage, combined word-wise with
the solver's ``once``/``multi``/``unread`` state (unpacked once per call
via :func:`~repro.perf.packed.bigint_to_words`).

The contract is **bit-identity** with the scalar references named in
``docs/backends.md``: every method returns exactly the integers the
big-int path produces, element for element, for any input
(differential-tested in ``tests/test_backends.py``).  Selection between
candidates always stays with the caller, so the kernel can never change a
chosen set, a work counter or a schedule.  Three rewrites keep the
batched path fast:

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
instead (the private ``_*_scalar`` helpers), where big-int arithmetic
beats array dispatch overhead.  The returned integers are identical
either way.  The helpers never call a public method, so a wrapper around
one public method sees each call exactly once.  GHC also uses
:data:`BATCH_MIN` as the size of the first batch it scores exactly when it
prunes a wide frontier by the fresh-count bound, and scores frontiers
below it whole.

Inputs follow one convention: masks are Python big-ints over tag bits
(bit ``t`` = tag ``t``), candidates/readers are ints indexing the system's
readers, and batch methods return ``numpy.int64`` arrays aligned with the
candidate order (empty candidate list → empty array).  The candidate list
is always the last positional argument.
"""

from __future__ import annotations

import weakref
from typing import List, Sequence

import numpy as np

from repro.perf.cache import conflict_bits, silencee_bits
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


class NumpyKernel:
    """Batched weight-evaluation kernel for one immutable system.

    Instances are built per :class:`~repro.model.system.RFIDSystem` (and
    cached on it by :func:`repro.perf.backends.kernel_for`); they hold only
    read-only views of the system's packed coverage and interference rows,
    so one instance may be shared by every solver touching that system.
    The system itself is held weakly: the kernel is that system's value in
    the weakly keyed per-system memo, so a strong reference would keep the
    key, and every structure memoised on it, alive for good.
    """

    def __init__(self, system) -> None:
        self._system = weakref.ref(system)
        packed = system.packed_coverage
        self._masks = packed.masks
        self._words = packed.words  # (n, W) uint64, read-only
        self._num_words = packed.num_words
        self._conflict_bool = np.asarray(system.conflict, dtype=bool)
        self._silencer_bool = np.asarray(system.in_interference_range, dtype=bool)
        self._words_memo = {}
        self._solo_memo = {}

    @property
    def system(self):
        """The system this kernel evaluates (alive while it is in use)."""
        return self._system()

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
    def solo_weights(
        self, unread_bits: int, candidates: Sequence[int]
    ) -> np.ndarray:
        """``popcount(cover[c] & unread)`` for each candidate ``c`` — the
        weight of activating the candidate alone (Definition 3 singleton) —
        served from the memoised per-unread-mask table."""
        cands = [int(c) for c in candidates]
        if not cands:
            return np.zeros(0, dtype=np.int64)
        return self._solo_table(unread_bits)[cands]

    def oracle_weights_with(
        self, once: int, multi: int, unread_bits: int, candidates: Sequence[int]
    ) -> np.ndarray:
        """Feasible-set rule: the weight of the current set (state
        ``once``/``multi``) extended by each candidate, matching
        :meth:`BitsetWeightOracle.weight_with` element-wise, for the whole
        frontier in one word-matrix pass."""
        cands = [int(c) for c in candidates]
        if len(cands) < BATCH_MIN:
            return self._oracle_scalar(once, multi, unread_bits, cands)
        c = self._words[cands]
        once_w = self._to_words(once)
        # (once | c) & ~(multi | (once & c))  ==  (once ^ c) & ~multi:
        # adding c flips exactly-once coverage where c overlaps once, and
        # creates it where c is fresh — XOR — while the already-multi zone
        # never counts again.  Two passes instead of five, same bits.
        zone = self._to_words(~int(multi) & int(unread_bits))
        return _row_counts((c ^ once_w) & zone)

    def _oracle_scalar(self, once, multi, unread_bits, cands):
        """The feasible-rule weight on big-ints, one candidate at a time —
        the :meth:`BitsetWeightOracle.weight_with` expression."""
        u = int(unread_bits)
        masks = self._masks
        out = []
        for r in cands:
            c = masks[r]
            multi_r = multi | (once & c)
            out.append(bit_count((once | c) & ~multi_r & u))
        return np.array(out, dtype=np.int64)

    def climb_weights_with(self, climb, candidates: Sequence[int]) -> np.ndarray:
        """Generalised (operational-reader) rule: the weight of
        ``climb.active + [c]`` for each candidate ``c``, infeasible sets
        allowed, matching :meth:`GeneralizedWeightClimber.weight_with`
        element-wise.  *climb* is the
        :class:`~repro.perf.incremental.GeneralizedWeightClimber` whose set
        is being grown; the frontier is scored from its carried state
        (``well``, ``fresh``, the silenced and operational reader sets) as
        the disjoint sum of the module docstring: no active reader's row is
        gathered except those the candidates silence."""
        cands = np.asarray(candidates, dtype=np.int64)
        if len(cands) < BATCH_MIN:
            return self._climb_scalar(climb, cands.tolist())
        return self._climb_batch(climb, cands)

    def _climb_batch(self, climb, cands: np.ndarray) -> np.ndarray:
        """The disjoint sum over a whole frontier as word-matrix passes."""
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

    def new_coverage_counts(
        self, once: int, multi: int, unread_bits: int, candidates: Sequence[int]
    ) -> np.ndarray:
        """Collision-naive gain: unread tags each candidate covers that no
        already-chosen reader does, matching
        :meth:`GeneralizedWeightClimber.new_coverage` element-wise."""
        cands = [int(c) for c in candidates]
        fresh_zone = ~(once | multi) & int(unread_bits)
        if len(cands) < BATCH_MIN:
            masks = self._masks
            return np.array(
                [bit_count(masks[r] & fresh_zone) for r in cands], dtype=np.int64
            )
        return _row_counts(self._words[cands] & self._to_words(fresh_zone))

    # -- structure batches -------------------------------------------------
    def filter_compatible(
        self, candidates: Sequence[int], blocked: Sequence[int]
    ) -> List[int]:
        """The candidates (order preserved) not adjacent to any reader in
        *blocked* in the interference graph — the conflict-row AND filter of
        the PTAS square enumeration and the feasible GHC scan — as one
        boolean conflict-submatrix ``any`` reduction."""
        cands = [int(c) for c in candidates]
        blocked = [int(b) for b in blocked]
        if not blocked:
            return cands
        if len(cands) < BATCH_MIN:
            blocked_bits = 0
            for b in blocked:
                blocked_bits |= 1 << b
            conflicts = conflict_bits(self.system)
            return [c for c in cands if not conflicts[c] & blocked_bits]
        bad = self._conflict_bool[np.ix_(cands, blocked)].any(axis=1)
        return [c for c, hit in zip(cands, bad) if not hit]
