"""The ``pure`` backend: today's scalar big-int path behind the interface.

Each batch method is the historical per-candidate loop, verbatim — the same
big-int word operations :class:`~repro.model.weights.BitsetWeightOracle`
and :class:`~repro.perf.incremental.GeneralizedWeightClimber` run, just
collected into an array.  This backend is the reference implementation of
the bit-identity contract (``docs/backends.md``): every other backend is
property-tested element-wise against it.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.perf.backends.base import WeightKernel
from repro.perf.cache import conflict_bits, silencer_bits
from repro.util.compat import bit_count


class PureKernel(WeightKernel):
    """Scalar big-int kernel — one candidate at a time, no vectorisation."""

    name = "pure"

    def __init__(self, system) -> None:
        super().__init__(system)
        packed = system.packed_coverage
        self._packed = packed
        self._masks = packed.masks

    # -- weight batches ----------------------------------------------------
    def solo_weights(self, unread_bits, candidates):
        """Per-candidate ``popcount(mask & unread)`` via scalar big-int ops."""
        u = int(unread_bits)
        masks = self._masks
        return np.array(
            [bit_count(masks[int(c)] & u) for c in candidates], dtype=np.int64
        )

    def oracle_weights_with(self, once, multi, unread_bits, candidates):
        """Feasible-rule ``w(X ∪ {r})`` per candidate — the
        :meth:`~repro.model.weights.BitsetWeightOracle.weight_with` loop."""
        u = int(unread_bits)
        masks = self._masks
        out = []
        for r in candidates:
            c = masks[int(r)]
            multi_r = multi | (once & c)
            out.append(bit_count((once | c) & ~multi_r & u))
        return np.array(out, dtype=np.int64)

    def climb_weights_with(self, climb, candidates):
        """Generalised-rule ``w(active ∪ {r})`` per candidate, from the
        definitions: the ``once``/``multi`` masks extended by ``r``, then a
        loop over the active list for the operational readers' exactly-once
        tags (silencer masks included)."""
        u = climb.unread_mask
        once, multi, active_bits = climb.once, climb.multi, climb.active_bits
        masks = self._masks
        silencers = silencer_bits(self.system)
        active = climb.active
        out = []
        for r in candidates:
            r = int(r)
            c = masks[r]
            multi_r = multi | (once & c)
            once_r = (once | c) & ~multi_r
            bits = active_bits | (1 << r)
            well = 0
            for i in active:
                if not silencers[i] & bits:
                    well |= masks[i] & once_r
            if not silencers[r] & bits:
                well |= c & once_r
            out.append(bit_count(well & u))
        return np.array(out, dtype=np.int64)

    def new_coverage_counts(self, once, multi, unread_bits, candidates):
        """Collision-naive fresh-coverage count per candidate."""
        fresh_zone = ~(once | multi) & int(unread_bits)
        masks = self._masks
        return np.array(
            [bit_count(masks[int(r)] & fresh_zone) for r in candidates],
            dtype=np.int64,
        )

    # -- structure batches -------------------------------------------------
    def covered_counts(self, unread=None):
        """Unread-coverage popcount for every reader.

        The historical best-singleton scan already popcounts the packed
        words (:mod:`repro.perf.packed`); both backends share it
        unchanged."""
        return self._packed.covered_counts(unread)

    def filter_compatible(self, candidates, blocked) -> List[int]:
        """Candidates whose conflict row misses every *blocked* reader,
        order preserved, via big-int conflict rows."""
        blocked_bits = 0
        for b in blocked:
            blocked_bits |= 1 << int(b)
        cands = [int(c) for c in candidates]
        if not blocked_bits:
            return cands
        conflicts = conflict_bits(self.system)
        return [c for c in cands if not conflicts[c] & blocked_bits]
