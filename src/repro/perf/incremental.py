"""Incremental generalised-weight state: the one Definition 3 weight engine.

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

The same climber is the feasible-search engine of the exact
branch-and-bound, the PTAS, local search, Algorithm 2 and Algorithm 3:
:meth:`~GeneralizedWeightClimber.push` adds a reader behind an undo log
that :meth:`~GeneralizedWeightClimber.pop` rewinds, and
:meth:`~GeneralizedWeightClimber.upper_bound_with` bounds every extension
of the current set.  Those searches only ever hold feasible sets, on which
no active reader is silenced, so the generalised weight is Definition 3's
``popcount(once & unread)`` there.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

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
    weight kernels; treat them as read-only.  GHC grows its set with
    :meth:`add`; a branch-and-bound search walks its tree with
    :meth:`push`/:meth:`pop`.
    """

    def __init__(self, system, unread: Optional[np.ndarray] = None):
        packed = system.packed_coverage
        if unread is None:
            unread_mask = packed.full_mask
        else:
            unread_mask = packed.pack_mask(unread)
        self._init(system, packed.masks, unread_mask, silencee_bits(system))

    @classmethod
    def from_masks(cls, cover: dict, unread_mask: int) -> "GeneralizedWeightClimber":
        """A climber over ``{reader_id: coverage bitmask}`` with no system.

        Serves a distributed node's local view, assembled from gathered
        messages: there is no geometry, so no reader silences another and
        only the feasible-search protocol (``push``/``pop``/``reset``,
        ``current_weight``, ``solo_weight``, ``weight_of`` and
        ``upper_bound_with``) applies — :attr:`fresh` and the
        ``weight_with`` family need a system.
        """
        self = cls.__new__(cls)
        cover = dict(cover)
        self._init(None, cover, int(unread_mask), dict.fromkeys(cover, 0))
        return self

    def _init(self, system, masks, unread_mask: int, silencees) -> None:
        # masks/silencees: reader id -> big-int row (the system's cached
        # tuples, or dicts for a system-less view); shared, never mutated
        self._system = system
        self._masks = masks
        self._unread = unread_mask
        self._silencees = silencees
        self.reset()

    def reset(self) -> None:
        """Clear the climber back to the empty active set."""
        self._active: List[int] = []
        self._undo: List[tuple] = []
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
        climbs never pays for it, and :meth:`pop` drops the counts (they
        only ever subtract) for the next read to rebuild."""
        zone = self.fresh_zone()
        if self._fresh is None:
            packed = self._system.packed_coverage
            words = bigint_to_words(zone, packed.num_words)
            self._fresh = popcount_words(packed.words & words).sum(
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
        bit = 1 << r
        # r moves its exactly-once tags to multi, and its uncovered tags
        # become exactly-once: c & once below is what r reads if operational
        multi = self.multi | (self.once & c)
        once = (self.once | c) & ~multi
        # every operational reader r silences loses its whole E_i; r reads
        # unless an active reader silences it (the diagonal is clear: r
        # never silences itself)
        hits = self._silencees[r]
        well = self.well & ~c
        lost = hits & self.operational
        if lost:
            for i in iter_bits(lost):
                well &= ~self._masks[i]
            self.operational &= ~hits
        silenced = self.silenced | hits
        self.silenced = silenced
        if not silenced & bit:
            well |= c & once & self._unread
            self.operational |= bit
        self.well = well
        self.multi = multi
        self.once = once
        self._active.append(r)
        self.active_bits |= bit

    # -- feasible search: undo log and bound ---------------------------------
    def push(self, reader: int) -> None:
        """:meth:`add` *reader*, logging the state it replaces for :meth:`pop`."""
        self._undo.append((
            self.once, self.multi, self.well,
            self.silenced, self.operational, self.active_bits,
        ))
        self.add(reader)

    def pop(self) -> None:
        """Undo the most recent :meth:`push`."""
        if not self._undo:
            raise IndexError("pop from empty climber stack")
        (self.once, self.multi, self.well,
         self.silenced, self.operational, self.active_bits) = self._undo.pop()
        self._active.pop()
        self._fresh = None

    @property
    def depth(self) -> int:
        """Number of pushed readers not yet popped."""
        return len(self._undo)

    def solo_weight(self, reader: int) -> int:
        """Weight of activating *reader* alone."""
        return bit_count(self._masks[reader] & self._unread)

    def weight_of(self, active: Iterable[int]) -> int:
        """Weight of the *feasible* set *active*, computed from scratch with
        no state: ``popcount(once & unread)``, Definition 3's count when no
        reader is silenced.  Every caller (the PTAS DP, local search,
        Algorithm 2 and the exact search's warm start) passes a feasible
        set; an infeasible one needs :meth:`add` and :meth:`current_weight`."""
        once = 0
        multi = 0
        for i in active:
            c = self._masks[int(i)]
            multi |= once & c
            once = (once | c) & ~multi
        return bit_count(once & self._unread)

    def upper_bound_with(self, candidates: Sequence[int]) -> int:
        """Upper bound on the weight of any feasible extension of the current
        feasible set by a subset of *candidates*.

        A tag already covered twice can never count again; a tag covered once
        stays countable; an uncovered tag is countable iff some candidate
        covers it.  This bound is monotone along the search tree, making it a
        sound branch-and-bound prune.
        """
        cand_union = 0
        for i in candidates:
            cand_union |= self._masks[int(i)]
        covered = self.once | self.multi
        potential = (self.once | (cand_union & ~covered)) & self._unread
        return bit_count(potential)
