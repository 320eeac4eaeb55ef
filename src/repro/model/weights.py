"""Incremental bitset weight oracle.

The exact MWFS search, the PTAS enumeration and the hill-climbing baseline
evaluate ``w(X)`` on millions of candidate sets.  The NumPy oracle in
:class:`~repro.model.system.RFIDSystem` rebuilds an ``(m, |X|)`` slice per
call; this oracle instead keeps, per reader, the coverage set as a Python
big-int bitmask over tags and maintains the pair

* ``once``  — tags covered by exactly one chosen reader so far,
* ``multi`` — tags covered by two or more,

under push/pop, so evaluating one more candidate reader costs a handful of
word-wise big-int operations regardless of how deep the search is.

The oracle assumes the evaluated sets are *feasible* (no RTc), which is the
regime of every search that uses it: infeasible branches are pruned before
weights are taken.  ``w(X) = popcount(once & unread)``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.model.system import RFIDSystem
from repro.util.compat import bit_count


class BitsetWeightOracle:
    """Weight oracle with O(m/64)-word incremental updates.

    Parameters
    ----------
    system:
        The deployment whose coverage matrix is packed.
    unread:
        Optional boolean mask restricting which tags count toward the
        weight (packed once here).  Defaults to the full population.
    """

    def __init__(self, system: RFIDSystem, unread: Optional[np.ndarray] = None):
        # O(n): the per-reader masks come from the system's packed-coverage
        # cache (built once per system) and are shared, never copied — every
        # oracle method treats _cover as read-only.
        packed = system.packed_coverage
        if unread is None:
            unread_mask = packed.full_mask
        else:
            unread_mask = packed.pack_mask(unread)
        self._init_from_masks(packed.masks, unread_mask)

    @classmethod
    def from_masks(cls, cover_masks: dict, unread_mask: int) -> "BitsetWeightOracle":
        """Build an oracle directly from ``{reader_id: coverage bitmask}``.

        Used by the distributed scheduler, whose nodes assemble coverage
        information from gathered messages rather than a global system view.
        """
        self = cls.__new__(cls)
        self._init_from_masks(dict(cover_masks), int(unread_mask))
        return self

    def _init_from_masks(self, cover, unread_mask: int) -> None:
        # cover: reader id -> mask (the system's masks tuple, or a dict)
        self._unread_mask = unread_mask
        self._cover = cover
        # search state
        self._once = 0
        self._multi = 0
        self._stack: List[tuple] = []

    # -- stateless helpers ------------------------------------------------
    @property
    def unread_mask(self) -> int:
        """Big-int mask of tags that count toward the weight."""
        return self._unread_mask

    def cover_mask(self, reader: int) -> int:
        """Bitmask of tags covered by *reader*."""
        return self._cover[reader]

    def solo_weight(self, reader: int) -> int:
        """Weight of activating *reader* alone."""
        return bit_count(self._cover[reader] & self._unread_mask)

    def weight_of(self, active: Iterable[int]) -> int:
        """Weight of a feasible set, computed from scratch (no state)."""
        once = 0
        multi = 0
        for i in active:
            c = self._cover[int(i)]
            multi |= once & c
            once = (once | c) & ~multi
        return bit_count(once & self._unread_mask)

    def well_covered_mask(self, active: Iterable[int]) -> int:
        """Bitmask of unread tags covered exactly once by the feasible set."""
        once = 0
        multi = 0
        for i in active:
            c = self._cover[int(i)]
            multi |= once & c
            once = (once | c) & ~multi
        return once & self._unread_mask

    # -- incremental search state -----------------------------------------
    def reset(self) -> None:
        """Clear the push/pop stack back to the empty set."""
        self._once = 0
        self._multi = 0
        self._stack.clear()

    def push(self, reader: int) -> None:
        """Add *reader* to the current set."""
        self._stack.append((self._once, self._multi))
        c = self._cover[reader]
        self._multi |= self._once & c
        self._once = (self._once | c) & ~self._multi

    def pop(self) -> None:
        """Undo the most recent :meth:`push`."""
        if not self._stack:
            raise IndexError("pop from empty oracle stack")
        self._once, self._multi = self._stack.pop()

    @property
    def depth(self) -> int:
        """Number of pushed readers."""
        return len(self._stack)

    def current_weight(self) -> int:
        """Weight of the currently pushed set."""
        return bit_count(self._once & self._unread_mask)

    def weight_with(self, reader: int) -> int:
        """Weight of the current set plus *reader*, without mutating state.

        Equals ``push(reader); current_weight(); pop()`` in one call — the
        shape of every greedy candidate scan.
        """
        c = self._cover[reader]
        multi = self._multi | (self._once & c)
        return bit_count((self._once | c) & ~multi & self._unread_mask)

    def weights_with_many(self, candidates: Sequence[int], kernel=None):
        """:meth:`weight_with` over a whole candidate frontier, as an
        ``int64`` array aligned with *candidates*.

        With a :class:`~repro.perf.backends.NumpyKernel` the evaluation is
        batched by the kernel, which must be built from the same system as
        this oracle's masks.  Without one, the scalar loop runs — identical
        integers either way (the kernel contract, ``docs/backends.md``)."""
        if kernel is not None:
            return kernel.oracle_weights_with(
                self._once, self._multi, self._unread_mask, candidates
            )
        return np.array(
            [self.weight_with(int(r)) for r in candidates], dtype=np.int64
        )

    def upper_bound_with(self, candidates: Sequence[int]) -> int:
        """Upper bound on the weight of any extension of the current set by a
        subset of *candidates*.

        A tag already covered twice can never count again; a tag covered once
        stays countable; an uncovered tag is countable iff some candidate
        covers it.  This bound is monotone along the search tree, making it a
        sound branch-and-bound prune.
        """
        cand_union = 0
        for i in candidates:
            cand_union |= self._cover[int(i)]
        covered = self._once | self._multi
        potential = (self._once | (cand_union & ~covered)) & self._unread_mask
        return bit_count(potential)


class WeightedTagOracle:
    """Weight oracle for *valued* tags (priority scheduling extension).

    Definition 3 counts well-covered tags; real inventories often weight
    them — perishables before durables, high-value pallets first.  This
    oracle scores a feasible set by ``Σ value(t)`` over its well-covered
    tags, exposing the same protocol as :class:`BitsetWeightOracle`
    (``solo_weight`` / ``weight_of`` / ``push`` / ``pop`` /
    ``current_weight`` / ``upper_bound_with``) so
    :func:`repro.core.exact.solve_mwfs_masks` runs on it unchanged.

    State is a per-tag coverage counter updated in O(cover(i)) per
    push/pop; with uniform values of 1.0 it agrees exactly with the bitset
    oracle (tested).
    """

    def __init__(
        self,
        system: RFIDSystem,
        tag_values: np.ndarray,
        unread: Optional[np.ndarray] = None,
    ):
        m = system.num_tags
        values = np.asarray(tag_values, dtype=np.float64)
        if values.shape != (m,):
            raise ValueError(f"tag_values must have shape ({m},)")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise ValueError("tag_values must be finite and >= 0")
        if unread is not None:
            unread = np.asarray(unread, dtype=bool)
            if unread.shape != (m,):
                raise ValueError(f"unread mask must have shape ({m},)")
            values = np.where(unread, values, 0.0)
        self._values = values
        self._cover_idx: List[np.ndarray] = [
            np.flatnonzero(system.coverage[:, i]) for i in range(system.num_readers)
        ]
        self._counts = np.zeros(m, dtype=np.int64)
        self._stack: List[int] = []

    # -- stateless helpers ------------------------------------------------
    def solo_weight(self, reader: int) -> float:
        """Value served by *reader* alone."""
        return float(self._values[self._cover_idx[reader]].sum())

    def weight_of(self, active: Iterable[int]) -> float:
        """Value of a feasible set, computed from scratch."""
        counts = np.zeros_like(self._counts)
        for i in active:
            counts[self._cover_idx[int(i)]] += 1
        return float(self._values[counts == 1].sum())

    # -- incremental search state -----------------------------------------
    def reset(self) -> None:
        """Clear the push/pop stack back to the empty set."""
        self._counts[:] = 0
        self._stack.clear()

    def push(self, reader: int) -> None:
        """Add *reader* to the current set."""
        self._counts[self._cover_idx[reader]] += 1
        self._stack.append(reader)

    def pop(self) -> None:
        """Undo the most recent push."""
        if not self._stack:
            raise IndexError("pop from empty oracle stack")
        reader = self._stack.pop()
        self._counts[self._cover_idx[reader]] -= 1

    @property
    def depth(self) -> int:
        """Number of pushed readers."""
        return len(self._stack)

    def current_weight(self) -> float:
        """Value of the currently pushed set."""
        return float(self._values[self._counts == 1].sum())

    def upper_bound_with(self, candidates: Sequence[int]) -> float:
        """Same monotone bound as the bitset oracle, value-weighted: tags
        covered ≤ 1 time so far count if already covered once or reachable
        by a candidate."""
        reachable = np.zeros(len(self._counts), dtype=bool)
        for i in candidates:
            reachable[self._cover_idx[int(i)]] = True
        countable = (self._counts == 1) | ((self._counts == 0) & reachable)
        return float(self._values[countable].sum())
