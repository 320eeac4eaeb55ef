"""The ``WeightKernel`` interface — the contract every backend implements.

A *backend* is a strategy for evaluating candidate frontiers: given the
solver's current big-int coverage state (``once``/``multi``/``unread``
masks, exactly the currency of
:class:`~repro.model.weights.BitsetWeightOracle` and
:class:`~repro.perf.incremental.GeneralizedWeightClimber`) and an ordered
candidate list, a kernel answers the per-candidate questions every greedy
scan asks — batched, so an implementation may vectorise across the whole
frontier.

The contract is **bit-identity**: every method must return exactly the
integers the scalar big-int path produces, element for element, for any
input — backends may differ only in wall-clock.  Selection between
candidates always stays with the *caller* (first index of the maximum,
strict-improvement thresholds), so a conforming kernel can never change a
solver's chosen set, its work counters, or its schedule.  ``docs/backends.md``
is the written form of this contract; :data:`KERNEL_METHODS` below is the
machine-readable method list it is diffed against by
``tests/test_obs_docs.py``.

Inputs follow one convention: masks are Python big-ints over tag bits
(bit ``t`` = tag ``t``), candidates/readers are ints indexing the system's
readers, and batch methods return ``numpy.int64`` arrays aligned with the
candidate order (empty candidate list → empty array).  The climb method
takes the climber itself, whose state is those same big-ints plus its
per-reader fresh counts.  The candidate list is always the last
positional argument.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Sequence

import numpy as np

#: Every kernel method a backend must provide, with its meaning.  Diffed
#: against the abstract interface below and against the method table of
#: ``docs/backends.md`` (both directions) by ``tests/test_obs_docs.py``.
KERNEL_METHODS: Dict[str, str] = {
    "solo_weights": "per-candidate singleton weight popcount(cover & unread)",
    "oracle_weights_with": "batch feasible-rule weight_with over a candidate frontier",
    "climb_weights_with": "batch generalised-rule (operational-reader) weight_with",
    "new_coverage_counts": "batch collision-naive new-coverage gain of each candidate",
    "covered_counts": "per-reader covered-unread counts (best-singleton scan)",
    "filter_compatible": "conflict-row AND filter: candidates independent of a blocked set",
}


class WeightKernel(ABC):
    """Abstract batched weight-evaluation kernel for one immutable system.

    Instances are built per :class:`~repro.model.system.RFIDSystem` (and
    cached on it via :func:`repro.perf.cache.system_memo`); they hold only
    read-only views of the system's packed coverage and interference rows,
    so one instance may be shared by every solver touching that system.
    """

    #: Registry name of the backend this kernel implements.
    name: str = "abstract"

    def __init__(self, system) -> None:
        self.system = system

    # -- weight batches ----------------------------------------------------
    @abstractmethod
    def solo_weights(
        self, unread_bits: int, candidates: Sequence[int]
    ) -> np.ndarray:
        """``popcount(cover[c] & unread)`` for each candidate ``c`` — the
        weight of activating the candidate alone (Definition 3 singleton)."""

    @abstractmethod
    def oracle_weights_with(
        self,
        once: int,
        multi: int,
        unread_bits: int,
        candidates: Sequence[int],
    ) -> np.ndarray:
        """Feasible-set rule: the weight of the current set (state
        ``once``/``multi``) extended by each candidate, matching
        :meth:`BitsetWeightOracle.weight_with` element-wise."""

    @abstractmethod
    def climb_weights_with(
        self,
        climb,
        candidates: Sequence[int],
    ) -> np.ndarray:
        """Generalised (operational-reader) rule: the weight of
        ``climb.active + [c]`` for each candidate ``c``, infeasible sets
        allowed, matching :meth:`GeneralizedWeightClimber.weight_with`
        element-wise.  *climb* is the
        :class:`~repro.perf.incremental.GeneralizedWeightClimber` whose set
        is being grown: a backend may read its carried state (``well``,
        ``fresh``, the silenced and operational reader sets) instead of
        re-deriving it from the active list."""

    @abstractmethod
    def new_coverage_counts(
        self,
        once: int,
        multi: int,
        unread_bits: int,
        candidates: Sequence[int],
    ) -> np.ndarray:
        """Collision-naive gain: unread tags each candidate covers that no
        already-chosen reader does, matching
        :meth:`GeneralizedWeightClimber.new_coverage` element-wise."""

    # -- structure batches -------------------------------------------------
    @abstractmethod
    def covered_counts(self, unread=None) -> np.ndarray:
        """Per-reader count of covered (optionally unread, boolean mask)
        tags — the best-singleton scan of the MCS driver; equals
        :meth:`PackedCoverage.covered_counts` exactly."""

    @abstractmethod
    def filter_compatible(
        self, candidates: Sequence[int], blocked: Sequence[int]
    ) -> List[int]:
        """The candidates (order preserved) not adjacent to any reader in
        *blocked* in the interference graph — the conflict-row AND filter of
        the PTAS square enumeration and the feasible GHC scan."""
