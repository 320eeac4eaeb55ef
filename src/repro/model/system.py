"""The frozen RFID deployment and its derived matrices.

The paper's model is coordinates plus two radii per reader, and that is the
whole state of :class:`RFIDSystem`: four arrays (reader positions,
interference radii ``R``, interrogation radii ``γ``, tag positions).  One
private core derives the three structures all schedulers share from them:

* ``coverage`` — boolean ``(m, n)`` incidence: tag *t* lies in reader *i*'s
  interrogation region;
* ``in_interference_range`` — directed boolean ``(n, n)``: reader *i* lies in
  reader *j*'s interference disk (the RTc predicate, Figure 1(b));
* ``conflict`` — its symmetrisation: *i* and *j* are **not** independent in
  the sense of Definition 2, i.e. they are adjacent in the interference
  graph (Definition 7).

:func:`build_system` feeds the arrays to that core directly (validating the
radii with the same rules and messages as :class:`~repro.model.reader.Reader`);
the entity constructor ``RFIDSystem(readers, tags)`` is a thin adapter that
converts its entities to arrays.  :class:`~repro.model.reader.Reader` and
:class:`~repro.model.tag.Tag` objects are lazy views: an array-built system
creates one only when :meth:`RFIDSystem.reader`/:meth:`RFIDSystem.tag` (or
``.readers``/``.tags``) first asks for it, and caches it.

The weight oracle (Definition 3) and the generalised well-covered computation
(Definition 1, needed for infeasible active sets produced by the
hill-climbing baseline) are evaluated directly on these matrices with NumPy.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.geometry.disks import _containment
from repro.geometry.points import as_points
from repro.model.reader import Reader
from repro.model.tag import Tag
from repro.obs.spans import span


#: Most float64 elements one chunk of :func:`_coverage_matrix` holds per
#: buffer (2 MiB).
COVERAGE_CHUNK = 1 << 18


def _coverage_matrix(
    tags: np.ndarray,
    readers: np.ndarray,
    gamma: np.ndarray,
    chunk: int = COVERAGE_CHUNK,
) -> np.ndarray:
    """Boolean ``(m, n)``: ``|t - r|² <= γ²``, decided on
    :func:`~repro.geometry.points.pairwise_sq_distances`'s
    ``(|t|² + |r|²) − 2·(t @ rᵀ)`` bit for bit.

    Tag rows go in chunks of about *chunk* elements through two reused
    ``out=`` buffers, so the float transient stays bounded however large
    the deployment.  The squared norms are taken once over all points,
    and no chunk has a single row: BLAS routes a one-row product through
    gemv, which rounds differently from the gemm the other rows take.
    """
    m, n = len(tags), len(readers)
    r2 = gamma[None, :] ** 2
    t_sq = np.einsum("ij,ij->i", tags, tags)
    r_sq = np.einsum("ij,ij->i", readers, readers)
    step = min(max(2, chunk // n), m)
    rows = min(max(step, 3), m)
    sq = np.empty((rows, n))
    ab = np.empty((rows, n))
    cov = np.empty((m, n), dtype=bool)
    lo = 0
    while lo < m:
        hi = min(lo + step, m)
        if m - hi == 1:
            # never leave a one-row tail: shorten this chunk, or take the
            # row in when that would leave it a single row itself
            hi = hi - 1 if hi - lo > 2 else m
        k = hi - lo
        np.matmul(tags[lo:hi], readers.T, out=ab[:k])
        np.multiply(2.0, ab[:k], out=ab[:k])
        np.add(t_sq[lo:hi, None], r_sq[None, :], out=sq[:k])
        np.subtract(sq[:k], ab[:k], out=sq[:k])
        np.less_equal(sq[:k], r2, out=cov[lo:hi])
        lo = hi
    return cov


class RFIDSystem:
    """Immutable multi-reader RFID deployment.

    Parameters
    ----------
    readers:
        Sequence of :class:`~repro.model.reader.Reader`; ids must equal their
        index (enforced) so array positions and entity ids never diverge.
    tags:
        Sequence of :class:`~repro.model.tag.Tag`, same id convention.

    The entities are converted to arrays and kept as the system's
    ``reader(i)``/``tag(t)`` views; :func:`build_system` builds the same
    system from arrays without creating any entity.
    """

    def __init__(self, readers: Sequence[Reader], tags: Sequence[Tag]):
        readers = list(readers)
        tags = list(tags)
        for idx, rd in enumerate(readers):
            if rd.id != idx:
                raise ValueError(f"reader at index {idx} has id {rd.id}")
        for idx, tg in enumerate(tags):
            if tg.id != idx:
                raise ValueError(f"tag at index {idx} has id {tg.id}")
        self._derive(
            np.array([[rd.x, rd.y] for rd in readers], dtype=np.float64).reshape(-1, 2),
            np.array([rd.interference_radius for rd in readers], dtype=np.float64),
            np.array([rd.interrogation_radius for rd in readers], dtype=np.float64),
            np.array([[tg.x, tg.y] for tg in tags], dtype=np.float64).reshape(-1, 2),
        )
        self._reader_views = dict(enumerate(readers))
        self._tag_views = dict(enumerate(tags))

    @classmethod
    def _from_arrays(
        cls,
        reader_pos: np.ndarray,
        interference_radii: np.ndarray,
        interrogation_radii: np.ndarray,
        tag_pos: np.ndarray,
    ) -> "RFIDSystem":
        """A system owning the given (validated, C-contiguous float64)
        arrays; no entity is created until one is asked for."""
        self = cls.__new__(cls)
        self._derive(reader_pos, interference_radii, interrogation_radii, tag_pos)
        self._reader_views = {}
        self._tag_views = {}
        return self

    def _derive(
        self,
        reader_pos: np.ndarray,
        interference_radii: np.ndarray,
        interrogation_radii: np.ndarray,
        tag_pos: np.ndarray,
    ) -> None:
        """The construction core: store the four state arrays and derive
        ``coverage``, ``in_interference_range`` and ``conflict`` from them."""
        self._reader_pos = reader_pos
        self._tag_pos = tag_pos
        self._interference_radii = interference_radii
        self._interrogation_radii = interrogation_radii
        n = len(reader_pos)
        m = len(tag_pos)

        if n and m:
            self._coverage = _coverage_matrix(
                tag_pos, reader_pos, interrogation_radii
            )
        else:
            self._coverage = np.zeros((m, n), dtype=bool)

        if n:
            self._in_range = _containment(reader_pos, interference_radii)
        else:
            self._in_range = np.zeros((0, 0), dtype=bool)
        # i, j conflict iff either lies in the other's disk; the diagonal of
        # the containment matrix is False, so the conflict diagonal is too
        self._conflict = self._in_range | self._in_range.T
        # lazily built packed kernels (see repro.perf); the system is
        # immutable, so these never need invalidation
        self._packed_coverage = None
        self._covered_by_any = None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_readers(self) -> int:
        """Number of readers."""
        return len(self._reader_pos)

    @property
    def num_tags(self) -> int:
        """Number of tags."""
        return len(self._tag_pos)

    @property
    def readers(self) -> List[Reader]:
        """Reader entities (a new list of the cached views)."""
        return [self.reader(i) for i in range(self.num_readers)]

    @property
    def tags(self) -> List[Tag]:
        """Tag entities (a new list of the cached views)."""
        return [self.tag(t) for t in range(self.num_tags)]

    def reader(self, i: int) -> Reader:
        """Reader *i*, built from the arrays on first access and cached."""
        i = range(self.num_readers)[i]
        rd = self._reader_views.get(i)
        if rd is None:
            rd = self._reader_views[i] = Reader(
                id=i,
                x=float(self._reader_pos[i, 0]),
                y=float(self._reader_pos[i, 1]),
                interference_radius=float(self._interference_radii[i]),
                interrogation_radius=float(self._interrogation_radii[i]),
            )
        return rd

    def tag(self, t: int) -> Tag:
        """Tag *t*, built from the arrays on first access and cached."""
        t = range(self.num_tags)[t]
        tg = self._tag_views.get(t)
        if tg is None:
            tg = self._tag_views[t] = Tag(
                id=t, x=float(self._tag_pos[t, 0]), y=float(self._tag_pos[t, 1])
            )
        return tg

    @property
    def reader_positions(self) -> np.ndarray:
        """(n, 2) reader coordinates (copy)."""
        return self._reader_pos.copy()

    @property
    def tag_positions(self) -> np.ndarray:
        """(m, 2) tag coordinates (copy)."""
        return self._tag_pos.copy()

    @property
    def interference_radii(self) -> np.ndarray:
        """(n,) interference radii R_i (copy)."""
        return self._interference_radii.copy()

    @property
    def interrogation_radii(self) -> np.ndarray:
        """(n,) interrogation radii gamma_i (copy)."""
        return self._interrogation_radii.copy()

    # ------------------------------------------------------------------
    # derived matrices (views; treat as read-only)
    # ------------------------------------------------------------------
    @property
    def coverage(self) -> np.ndarray:
        """Boolean ``(m, n)``: tag t inside reader i's interrogation region."""
        return self._coverage

    @property
    def in_interference_range(self) -> np.ndarray:
        """Directed boolean ``(n, n)``: ``[i, j]`` — i inside j's interference
        disk (j's carrier drowns i's uplink when both are active)."""
        return self._in_range

    @property
    def conflict(self) -> np.ndarray:
        """Symmetric interference-graph adjacency (Definition 7)."""
        return self._conflict

    @property
    def packed_coverage(self):
        """Word-packed coverage kernels
        (:class:`~repro.perf.packed.PackedCoverage`), built on first access
        and cached for the system's lifetime.  This is the single
        O(n·m) packing pass every weight oracle used to repeat per
        construction."""
        if self._packed_coverage is None:
            from repro.perf.packed import PackedCoverage

            with span("coverage.pack", readers=self.num_readers):
                self._packed_coverage = PackedCoverage(self._coverage)
        return self._packed_coverage

    # ------------------------------------------------------------------
    # feasibility (Definition 2)
    # ------------------------------------------------------------------
    def independent(self, i: int, j: int) -> bool:
        """Whether readers *i* and *j* are independent."""
        if i == j:
            raise ValueError("independence is defined for distinct readers")
        return not self._conflict[i, j]

    def is_feasible(self, active: Iterable[int]) -> bool:
        """Whether *active* is a feasible scheduling set (pairwise
        independent; the empty set is feasible)."""
        idx = np.asarray(sorted(set(int(a) for a in active)), dtype=np.int64)
        if idx.size <= 1:
            return True
        sub = self._conflict[np.ix_(idx, idx)]
        return not bool(sub.any())

    # ------------------------------------------------------------------
    # well-covered tags and weight (Definitions 1 and 3)
    # ------------------------------------------------------------------
    def _normalize_active(self, active: Iterable[int]) -> np.ndarray:
        idx = np.asarray(sorted(set(int(a) for a in active)), dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_readers):
            raise IndexError("reader index out of range")
        return idx

    def operational_readers(self, active: Iterable[int]) -> np.ndarray:
        """Subset of *active* readers not suffering RTc — i.e. not inside any
        other active reader's interference disk.  For a feasible set this is
        the whole set."""
        idx = self._normalize_active(active)
        if idx.size == 0:
            return idx
        sub = self._in_range[np.ix_(idx, idx)]
        suffering = sub.any(axis=1)
        return idx[~suffering]

    def well_covered_tags(
        self, active: Iterable[int], unread: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Tags well-covered by the active set (Definition 1): unread tags in
        the interrogation region of exactly one active reader, that reader
        being operational (RTc-free).  *active* need not be feasible."""
        idx = self._normalize_active(active)
        m = self.num_tags
        if unread is not None:
            unread = np.asarray(unread, dtype=bool)
            if unread.shape != (m,):
                raise ValueError(f"unread mask must have shape ({m},)")
        if idx.size == 0 or m == 0:
            return np.empty(0, dtype=np.int64)
        cov = self._coverage[:, idx]
        counts = cov.sum(axis=1)
        once = counts == 1
        if unread is not None:
            once = once & unread
        if not once.any():
            return np.empty(0, dtype=np.int64)
        # unique covering reader per exactly-once tag
        owner_local = np.argmax(cov[once], axis=1)
        operational = self.operational_readers(idx)
        op_mask_local = np.isin(idx, operational)
        good = op_mask_local[owner_local]
        return np.flatnonzero(once)[good]

    def weight(
        self, active: Iterable[int], unread: Optional[np.ndarray] = None
    ) -> int:
        """Weight ``w(X)`` of the active set (Definition 3, generalised to
        infeasible sets via the operational-reader rule)."""
        return int(len(self.well_covered_tags(active, unread)))

    def covered_by_any(self) -> np.ndarray:
        """Boolean mask over tags: inside at least one interrogation region
        (i.e. inside the monitored region M of Definition 4).  Tags outside M
        can never be read by any schedule.  Cached; the returned array is
        read-only — copy before mutating."""
        if self._covered_by_any is None:
            mask = self._coverage.any(axis=1)
            mask.setflags(write=False)
            self._covered_by_any = mask
        return self._covered_by_any

    def exclusive_coverage_counts(self, active: Iterable[int]) -> np.ndarray:
        """Per-active-reader count of tags it covers exclusively within the
        active set (diagnostics for examples/benchmarks)."""
        idx = self._normalize_active(active)
        if idx.size == 0:
            return np.empty(0, dtype=np.int64)
        cov = self._coverage[:, idx]
        counts = cov.sum(axis=1)
        excl = cov & (counts == 1)[:, None]
        return excl.sum(axis=0).astype(np.int64)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RFIDSystem(n_readers={self.num_readers}, n_tags={self.num_tags})"


def build_system(
    reader_positions: np.ndarray,
    interference_radii: np.ndarray,
    interrogation_radii: np.ndarray,
    tag_positions: np.ndarray,
) -> RFIDSystem:
    """Array-first constructor for :class:`RFIDSystem`.

    The arrays are copied and fed to the construction core directly; no
    :class:`Reader`/:class:`Tag` is created.  Positions must be finite and
    the radii pass the same checks, with the same messages, as
    :class:`~repro.model.reader.Reader`: finite, ``> 0``, and ``γ ≤ R``
    (up to ``1e-12``).
    """
    reader_positions = as_points(reader_positions, "reader_positions")
    tag_positions = (
        as_points(tag_positions, "tag_positions")
        if len(np.atleast_1d(tag_positions))
        else np.empty((0, 2))
    )
    interference_radii = np.asarray(interference_radii, dtype=np.float64)
    interrogation_radii = np.asarray(interrogation_radii, dtype=np.float64)
    n = len(reader_positions)
    if interference_radii.shape != (n,) or interrogation_radii.shape != (n,):
        raise ValueError("radii arrays must match number of reader positions")
    check_radii(reader_positions, interference_radii, interrogation_radii)
    return RFIDSystem._from_arrays(
        np.array(reader_positions, dtype=np.float64, order="C"),
        np.array(interference_radii, dtype=np.float64, order="C"),
        np.array(interrogation_radii, dtype=np.float64, order="C"),
        np.array(tag_positions, dtype=np.float64, order="C"),
    )


def check_radii(
    reader_positions: np.ndarray,
    interference_radii: np.ndarray,
    interrogation_radii: np.ndarray,
) -> None:
    """Raise unless every reader's radii pass :class:`~repro.model.reader.
    Reader`'s checks (finite, ``> 0``, ``γ ≤ R`` up to ``1e-12``), with the
    entity's message for the first reader that fails."""
    valid = (
        np.isfinite(interference_radii)
        & (interference_radii > 0)
        & np.isfinite(interrogation_radii)
        & (interrogation_radii > 0)
        & (interrogation_radii <= interference_radii + 1e-12)
    )
    if not valid.all():
        # The first invalid reader, built as an entity, raises exactly the
        # error the entity path would.
        i = int(np.argmin(valid))
        Reader(
            id=i,
            x=float(reader_positions[i, 0]),
            y=float(reader_positions[i, 1]),
            interference_radius=float(interference_radii[i]),
            interrogation_radius=float(interrogation_radii[i]),
        )


class ReducedSystems:
    """Systems restricted to unsuspected readers — the candidate view of a
    fault-tolerant solve — holding the latest suspicion pattern per key.

    One cache serves several base systems, one *key* each.  A flaky world
    draws a new pattern almost every slot and seldom returns to an older
    one, so each key keeps only its latest reduced system: memory stays
    at one system per key, and a repeated pattern is still served from
    the cache.
    """

    def __init__(self) -> None:
        self._latest: dict = {}

    def get(self, system: RFIDSystem, suspected: np.ndarray, key=None):
        """``(reduced, live)``: *system* rebuilt over the readers
        *suspected* leaves out (``None`` when it leaves none) and their
        ids in *system*."""
        pattern = suspected.tobytes()
        entry = self._latest.get(key)
        if entry is None or entry[0] != pattern:
            live = np.flatnonzero(~suspected)
            reduced = None
            if live.size:
                # slices of a validated system; the tag array is shared
                reduced = RFIDSystem._from_arrays(
                    system._reader_pos[live],
                    system._interference_radii[live],
                    system._interrogation_radii[live],
                    system._tag_pos,
                )
            entry = self._latest[key] = (pattern, reduced, live)
        return entry[1], entry[2]

    def clear(self) -> None:
        """Drop every cached system (base systems changed)."""
        self._latest.clear()
