"""Incremental generalised-weight state for the GHC climb.

GHC (Section VI) grows an active set ``A`` one reader at a time, each step
picking the candidate with the largest incremental generalised weight
``w(A ∪ {c}) − w(A)``.  :class:`GeneralizedWeightClimber` carries the state
that question needs across the whole climb, so no step rebuilds anything
from the active list and :meth:`~GeneralizedWeightClimber.add` is a few
big-int operations:

* ``once``/``multi`` — masks of the tags covered by exactly one / more
  than one reader of ``A``;
* ``well`` — the union of ``E_i = cover_i ∩ once ∩ unread`` over the
  *operational* readers ``i`` of ``A`` (not silenced by another active
  reader, Definition 1), so ``w(A) = popcount(well)``;
* ``silenced``/``operational`` — reader sets as big-ints: the readers
  inside some active reader's interference disk, and the active readers
  outside every other one's;
* ``fresh[c] = |cover_c ∩ unread ∖ (once ∪ multi)|`` — the unread tags a
  candidate covers that nobody in ``A`` does.  Only readers sharing a tag
  with an added reader (so overlapping its interrogation disk) lose
  fresh tags; the counts are synced on read by subtracting the coverage
  rows of the tags covered since the last read.

From that state a candidate's gain is a disjoint sum over the operational
readers (distinct ``E_i`` share no tag)::

    gain(c) = [c not silenced]·fresh[c] − |cover_c ∩ well|
              − Σ_{operational i that c silences} |E_i ∖ cover_c|

so ``[c not silenced]·fresh[c]`` bounds every candidate's gain, and it
never rises as ``A`` grows — the bound :func:`repro.baselines.hillclimb.greedy_hill_climbing`
prunes wide frontiers with.  :meth:`~GeneralizedWeightClimber.weight_with`
keeps the from-definitions evaluation (a loop over the active list) as
the scalar reference: it equals ``system.weight(active + [r], unread)``,
and ``current_weight()`` equals ``system.weight(active, unread)``
(property-tested in ``tests/test_perf_kernels.py`` and
``tests/test_baselines_hillclimb.py``).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.perf.cache import silencee_bits, silencer_bits
from repro.perf.packed import bigint_to_bool, bigint_to_words, iter_bits, popcount_words
from repro.util.compat import bit_count


class GeneralizedWeightClimber:
    """Grow an active set one reader at a time under the generalised weight.

    Parameters
    ----------
    system:
        The deployment (its :attr:`packed_coverage` and cached bitmask rows
        are shared, not copied).
    unread:
        Optional boolean tag mask restricting which tags count (packed once
        here).

    The state attributes (``once``, ``multi``, ``active_bits``, ``well``,
    ``silenced``, ``operational`` and :attr:`fresh`) are read by the
    weight kernels; treat them as read-only.
    """

    def __init__(self, system, unread: Optional[np.ndarray] = None):
        packed = system.packed_coverage
        self._system = system
        self._packed = packed
        self._masks = packed.masks
        if unread is None:
            self._unread = packed.full_mask
        else:
            self._unread = packed.pack_mask(unread)
        self._silencees = silencee_bits(system)
        self._active: List[int] = []
        self.active_bits = 0
        self.once = 0
        self.multi = 0
        self.well = 0
        self.silenced = 0
        self.operational = 0
        self._fresh: Optional[np.ndarray] = None
        self._fresh_zone_seen = 0

    @property
    def active(self) -> List[int]:
        """Readers added so far, in insertion order (copy)."""
        return list(self._active)

    @property
    def unread_mask(self) -> int:
        """Big-int mask of tags that count toward the weight."""
        return self._unread

    @property
    def fresh(self) -> np.ndarray:
        """Per-reader ``|cover_c ∩ unread ∖ (once ∪ multi)|`` as ``int64``.

        Popcounted on first use; each later read subtracts the coverage
        rows of the tags covered since the previous read — they name
        exactly the readers whose count fell, all overlapping the added
        readers' interrogation disks.  A weight evaluation that never
        climbs never pays for it."""
        zone = self.fresh_zone()
        if self._fresh is None:
            words = bigint_to_words(zone, self._packed.num_words)
            self._fresh = popcount_words(self._packed.words & words).sum(
                axis=1, dtype=np.int64
            )
        elif zone != self._fresh_zone_seen:
            system = self._system
            gone = bigint_to_bool(self._fresh_zone_seen & ~zone, system.num_tags)
            self._fresh -= system.coverage[gone].sum(axis=0)
        self._fresh_zone_seen = zone
        return self._fresh

    def fresh_zone(self) -> int:
        """Big-int mask of the unread tags no active reader covers."""
        return self._unread & ~(self.once | self.multi)

    def new_coverage(self, reader: int) -> int:
        """Count of unread tags *reader* covers that no active reader does
        (the collision-naive "coverage" gain of the GHC ablation)."""
        return bit_count(self._masks[reader] & self.fresh_zone())

    def weight_with(self, reader: int) -> int:
        """``w(active ∪ {reader})`` under the generalised operational-reader
        rule, evaluated from the definitions by a loop over the active
        list — bit-identical to ``system.weight(active + [reader], unread)``."""
        c = self._masks[reader]
        multi = self.multi | (self.once & c)
        once = (self.once | c) & ~multi
        bits = self.active_bits | (1 << reader)
        silencers = silencer_bits(self._system)
        well = 0
        for i in self._active + [reader]:
            if not silencers[i] & bits:
                well |= self._masks[i] & once
        return bit_count(well & self._unread)

    def weights_with_many(self, candidates, kernel=None) -> np.ndarray:
        """:meth:`weight_with` over a candidate frontier, as an ``int64``
        array aligned with *candidates*.

        With a :class:`~repro.perf.backends.NumpyKernel` (built from the
        same system) the kernel evaluates it from the carried state;
        without one the scalar loop runs.  Identical integers either way
        (``docs/backends.md``)."""
        if kernel is not None:
            return kernel.climb_weights_with(self, candidates)
        return np.array(
            [self.weight_with(int(r)) for r in candidates], dtype=np.int64
        )

    def new_coverage_many(self, candidates, kernel=None) -> np.ndarray:
        """:meth:`new_coverage` over a candidate frontier, as an ``int64``
        array aligned with *candidates* (kernel-delegated like
        :meth:`weights_with_many`)."""
        if kernel is not None:
            return kernel.new_coverage_counts(
                self.once, self.multi, self._unread, candidates
            )
        return np.array(
            [self.new_coverage(int(r)) for r in candidates], dtype=np.int64
        )

    def current_weight(self) -> int:
        """``w(active)`` of the set grown so far."""
        return bit_count(self.well)

    @property
    def feasible(self) -> bool:
        """Whether the set grown so far is RTc-free: no active reader lies
        in the silenced set (equal to ``system.is_feasible(active)``)."""
        return not self.silenced & self.active_bits

    def add(self, reader: int) -> None:
        """Commit *reader* to the active set: a few big-int operations, plus
        one per operational reader it silences."""
        r = int(reader)
        c = self._masks[r]
        zone = c & self.fresh_zone()  # tags only r covers from now on
        # r moves its exactly-once tags to multi; every operational reader it
        # silences loses its whole E_i; r reads its fresh tags unless an
        # active reader silences it (the diagonal is clear: r never
        # silences itself)
        hits = self._silencees[r]
        well = self.well & ~c
        for i in iter_bits(hits & self.operational):
            well &= ~self._masks[i]
        self.operational &= ~hits
        self.silenced |= hits
        if not self.silenced >> r & 1:
            well |= zone
            self.operational |= 1 << r
        self.well = well
        self.multi |= self.once & c
        self.once = (self.once | c) & ~self.multi
        self._active.append(r)
        self.active_bits |= 1 << r
