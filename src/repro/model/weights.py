"""Value-weighted tag oracle (priority scheduling extension).

Definition 3's weight ``w(X)`` — the unread tags covered by exactly one
operational reader — is evaluated by one engine,
:class:`~repro.perf.incremental.GeneralizedWeightClimber`.
:class:`WeightedTagOracle` is its extension to *valued* tags: it scores a
feasible set by the total value of its well-covered tags, with float
values in place of Definition 3's count, behind the same push/pop protocol
the exact branch-and-bound searches with.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.model.system import RFIDSystem


class WeightedTagOracle:
    """Weight oracle for *valued* tags (priority scheduling extension).

    Definition 3 counts well-covered tags; real inventories often weight
    them — perishables before durables, high-value pallets first.  This
    oracle scores a feasible set by ``Σ value(t)`` over its well-covered
    tags, exposing the feasible-search protocol of
    :class:`~repro.perf.incremental.GeneralizedWeightClimber`
    (``solo_weight`` / ``weight_of`` / ``push`` / ``pop`` /
    ``current_weight`` / ``upper_bound_with``) so
    :func:`repro.core.exact.solve_mwfs_masks` runs on it unchanged.

    State is a per-tag coverage counter updated in O(cover(i)) per
    push/pop; with uniform values of 1.0 it agrees exactly with the
    climber on feasible sets (tested).
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
        """Same monotone bound as the climber's, value-weighted: tags
        covered ≤ 1 time so far count if already covered once or reachable
        by a candidate."""
        reachable = np.zeros(len(self._counts), dtype=bool)
        for i in candidates:
            reachable[self._cover_idx[int(i)]] = True
        countable = (self._counts == 1) | ((self._counts == 0) & reachable)
        return float(self._values[countable].sum())
