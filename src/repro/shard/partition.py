"""Spatial partition of a deployment into cells with one-ring halos.

The partition assigns every reader to the square grid cell containing it
and describes, per cell, a self-contained deployment over the cell's
**owned** readers, its **halo** readers (nearby readers from neighbouring
cells whose activation can influence the cell), and a band of tags wide
enough that every owned tag's coverage is fully represented.  Because the
cell side is at least the interaction radius ``H`` of
:func:`repro.shard.spec.interaction_radius`, all of this lives in the
cell's 3×3 bucket neighbourhood — the one-ring halo contract.  A cell's
dense :attr:`ShardCell.subsystem` is built only on first access.

Every partition holds the one **coverage relation** — each (coverable
tag, covering reader) pair, ``d² <= γ_j²``, as a tag-sorted CSR — from
which ownership, the stacked cell state (:mod:`repro.shard.stack`), the
lockstep climb (:mod:`repro.shard.climb`) and the scale verification
(:attr:`ShardPartition.tags_by_reader`) all derive.

Ownership rules (``docs/scale.md``):

* a **reader** is owned by the cell containing its position;
* a coverable **tag** is owned by the cell of its lowest-id covering
  reader.  This is deterministic, assigns each coverable tag to exactly one
  cell, and — crucially — guarantees the owner cell can serve the tag with
  its own readers, so boundary tags whose position falls in a readerless
  cell are never starved;
* tags covered by no reader are unowned (they are the ``uncovered_tags``
  of the schedule and can never be read).

The grid is the same construction as
:class:`~repro.geometry.grid.SpatialHashGrid` — ``floor((p - origin)/side)``
bucket keys — anchored at the deployment's bounding-box corner and kept
sparse: only buckets containing readers become cells.

Membership changes (``docs/robustness.md``): :meth:`ShardPartition.
retire_readers` applies confirmed permanent reader crashes as an
**incremental partition refresh** — each orphaned tag is re-bucketed to the
cell of its new lowest-id *alive* covering reader (or marked uncoverable
when none survives), and only the dirtied cells (those that lost a reader
or gained a tag) have their halo subsystems rebuilt over the surviving
fleet.  Untouched cells keep their subsystems, and their packing,
byte-for-byte.  Dead readers may linger in an *untouched* neighbour's halo — they
are advisory only, permanently suspected, and never activated, so this is
harmless and avoids cascading rebuilds.

A deployment that collapses to one cell has no partition at all:
:meth:`ShardPartition.from_arrays` returns ``None`` and both drivers run
the unsharded world.  Every partition also holds the reader **conflict
graph** — every pair with ``d <= max(R_i, R_j)`` as a symmetric CSR,
built once from the reader buckets.  The boundary merge and the scale
driver's RTc verification both read it through
:meth:`ShardPartition.active_conflicts` instead of a dense pass over the
slot's active set.  Refreshes keep both relations: they depend on
positions and radii alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.geometry.grid import group_by_key
from repro.geometry.points import as_points
from repro.model.system import RFIDSystem, check_radii
from repro.obs.spans import span
from repro.shard.spec import ShardSpec

Key = Tuple[int, int]

#: Chebyshev one-ring offsets around a bucket, the bucket itself excluded.
RING_OFFSETS: Tuple[Key, ...] = tuple(
    (dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1) if (dx, dy) != (0, 0)
)
#: The bucket itself plus its one ring.
NEIGHBOURHOOD: Tuple[Key, ...] = ((0, 0),) + RING_OFFSETS
#: Band pairs (cell, tag) after which :meth:`ShardPartition._build_cells`
#: closes a block; a block holds one neighbourhood more at most.
BUILD_BLOCK = 1 << 16


def _bucket_keys(points: np.ndarray, origin: np.ndarray, side: float) -> np.ndarray:
    """Integer grid keys ``floor((p - origin)/side)`` of *points*, ``(k, 2)``."""
    if len(points) == 0:
        return np.empty((0, 2), dtype=np.int64)
    return np.floor((points - origin[None, :]) / side).astype(np.int64)


def _conflict_graph(
    rpos: np.ndarray, R: np.ndarray, reader_buckets: Dict[Key, np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric CSR ``(indptr, ids)`` of every reader pair ``i != j`` with
    ``d² <= max(R_i, R_j)²`` — the paper's conflict relation.

    Built per bucket as owned × (own bucket ∪ one-ring), which is
    exhaustive because ``max(R) <= H <= side``.  ``d²`` is ``dx*dx +
    dy*dy`` on split coordinates, which is the same single rounded add as
    ``(diff*diff).sum(-1)`` over the pair axis, so pairs at exactly ``d ==
    max(R_i, R_j)`` are decided bit-identically to a dense check.  Rows are
    ascending.
    """
    n = len(rpos)
    src_parts: List[np.ndarray] = []
    dst_parts: List[np.ndarray] = []
    for key, owned in reader_buckets.items():
        cand = _pairs(reader_buckets, [key], NEIGHBOURHOOD)[1]
        d2 = _sq_dist(rpos, owned, rpos, cand)
        rmax = np.maximum(R[owned][:, None], R[cand][None, :])
        hit = (d2 <= rmax * rmax) & (owned[:, None] != cand[None, :])
        i, j = np.nonzero(hit)
        src_parts.append(owned[i])
        dst_parts.append(cand[j])
    return _csr(np.concatenate(src_parts), np.concatenate(dst_parts), n)


def _cover_relation(
    tpos: np.ndarray,
    rpos: np.ndarray,
    gamma: np.ndarray,
    reader_buckets: Dict[Key, np.ndarray],
    tag_buckets: Dict[Key, np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Tag-sorted CSR ``(indptr, ids)`` of every (tag, reader) pair with
    ``d² <= γ_j²``: row *t* lists the readers covering tag *t*, ascending.

    Built per tag bucket against the bucket's one-ring readers, which is
    exhaustive because ``γ_max <= H <= side``; ``d²`` is the split ``dx*dx
    + dy*dy`` of :func:`_conflict_graph`.
    """
    gamma_sq = gamma * gamma
    tag_parts: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
    reader_parts: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
    for key, tids in tag_buckets.items():
        cand = _pairs(reader_buckets, [key], NEIGHBOURHOOD)[1]
        i, j = np.nonzero(_sq_dist(tpos, tids, rpos, cand) <= gamma_sq[cand])
        tag_parts.append(tids[i])
        reader_parts.append(cand[j])
    return _csr(np.concatenate(tag_parts), np.concatenate(reader_parts), len(tpos))


def _csr(rows: np.ndarray, cols: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(indptr, ids)``: the pairs ``(rows[j], cols[j])`` grouped into *n*
    rows, each row's ids ascending."""
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[order]


def _ranges(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The concatenated index ranges ``starts[j]:ends[j]``."""
    lens = ends - starts
    total = int(lens.sum())
    if not total:
        return np.zeros(0, dtype=np.int64)
    offsets = np.repeat(starts - np.cumsum(lens) + lens, lens)
    return offsets + np.arange(total)


def _sq_dist(p: np.ndarray, a: np.ndarray, q: np.ndarray, b: np.ndarray):
    """``(len(a), len(b))`` squared distances between rows *a* of points
    *p* and rows *b* of points *q*, as ``dx*dx + dy*dy`` on split
    coordinates."""
    dx = p[a, 0][:, None] - q[b, 0][None, :]
    dy = p[a, 1][:, None] - q[b, 1][None, :]
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _dist_to_rect(px, py, x0, x1, y0, y1) -> np.ndarray:
    """Euclidean distance from each point to its closed rectangle (0
    inside); the bounds broadcast against the coordinates."""
    return np.hypot(np.clip(px, x0, x1) - px, np.clip(py, y0, y1) - py)


def _pairs(buckets: Dict[Key, np.ndarray], keys, offsets):
    """Flat ``(position, id)`` pairs: for each key of *keys* (at its
    position), the ids of the buckets at key + each of *offsets*."""
    parts: List[np.ndarray] = []
    where: List[int] = []
    for p, (kx, ky) in enumerate(keys):
        for dx, dy in offsets:
            ids = buckets.get((kx + dx, ky + dy))
            if ids is not None:
                parts.append(ids)
                where.append(p)
    if not parts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    lens = np.fromiter((len(a) for a in parts), dtype=np.int64, count=len(parts))
    return np.repeat(np.asarray(where, dtype=np.int64), lens), np.concatenate(parts)


def _segments(pos: np.ndarray, ids: np.ndarray, size: int, count: int):
    """Sort the ``(position, id)`` pairs by position then id, with one sort
    of ``position * size + id`` (ids are below *size*); returns the sorted
    ids and their segment bounds, ``count + 1`` offsets."""
    size = max(size, 1)
    counts = np.bincount(pos, minlength=count)
    ids = np.sort(pos * size + ids) - np.repeat(np.arange(count) * size, counts)
    return ids, np.concatenate(([0], np.cumsum(counts)))


@dataclass(frozen=True)
class RefreshReport:
    """What one :meth:`ShardPartition.retire_readers` call changed.

    ``retired`` are the reader ids newly marked dead; ``rebuilt_cells`` the
    cells whose halo subsystem was rebuilt (they lost an owned reader or
    gained a tag); ``emptied_cells`` the cells left with no alive owned
    reader (their owned tags were all re-bucketed or orphaned, so they
    own nothing); ``moved_tags`` / ``orphaned_tags`` count
    re-bucketed and newly-uncoverable tags."""

    retired: Tuple[int, ...]
    rebuilt_cells: Tuple[int, ...]
    emptied_cells: Tuple[int, ...]
    moved_tags: int
    orphaned_tags: int


@dataclass
class ShardCell:
    """One spatial cell of a :class:`ShardPartition`.

    ``reader_ids`` are the owned readers, ``halo_reader_ids`` the advisory
    neighbours; ``all_reader_ids`` is their sorted union and gives the
    local→global reader id map of ``subsystem`` (local id *i* is global id
    ``all_reader_ids[i]``).  ``tag_ids`` plays the same role for tags.
    ``owned_reader_mask`` / ``owned_tag_mask`` are boolean masks over the
    local ids marking ownership.  ``source`` is the partition's
    ``(reader_positions, interference_radii, interrogation_radii,
    tag_positions)``, from which ``subsystem`` is built.
    """

    index: int
    key: Key
    bounds: Tuple[float, float, float, float]
    reader_ids: np.ndarray
    halo_reader_ids: np.ndarray
    all_reader_ids: np.ndarray
    tag_ids: np.ndarray
    owned_reader_mask: np.ndarray
    owned_tag_mask: np.ndarray
    source: Optional[Tuple[np.ndarray, ...]] = field(default=None, repr=False)

    @cached_property
    def subsystem(self) -> RFIDSystem:
        """The cell's halo-augmented system, built on first access."""
        rpos, R, gamma, tpos = self.source
        r, t = self.all_reader_ids, self.tag_ids
        return RFIDSystem._from_arrays(rpos[r], R[r], gamma[r], tpos[t])


class ShardPartition:
    """A sharded view of a deployment: cells, halos and ownership maps.

    Build via :meth:`from_arrays` (array-first; the 10⁴-reader scale path
    never materialises a global system) or :meth:`from_system`.  Both
    return ``None`` when the deployment collapses to one cell, so a
    partition always has at least two.  The constructor builds the cells
    from the validated arrays, buckets and cell keys it is given.

    Attributes
    ----------
    cells:
        :class:`ShardCell` list; ``cells[i].index == i``.
    cell_of_reader:
        ``(n,)`` owner cell index per reader.
    owner_of_tag:
        ``(m,)`` owner cell index per tag, ``-1`` for uncoverable tags:
        the cell of the tag's first alive pair.
    cover_indptr, cover_ids:
        The coverage relation, every (tag, reader) pair with ``d² <=
        γ_j²``, as a tag-sorted CSR (row *t* is ``cover_ids[cover_indptr[t]:
        cover_indptr[t + 1]]``, ascending; :func:`_cover_relation`).
        Like the conflict graph it depends on positions and radii alone
        and refreshes keep it; :attr:`tags_by_reader` is its transpose.
    conflict_indptr, conflict_ids:
        The reader conflict graph ``d <= max(R_i, R_j)`` as a symmetric
        CSR (row *i* is ``conflict_ids[conflict_indptr[i]:
        conflict_indptr[i + 1]]``, ascending; :func:`_conflict_graph`).
        It depends on positions and radii alone, so refreshes keep it:
        dead readers are never active, and their stale edges are
        harmless.  :meth:`active_conflicts` restricts it to an active set.
    """

    def __init__(
        self,
        spec: ShardSpec,
        origin: np.ndarray,
        cell_side: float,
        cell_of_reader: np.ndarray,
        reader_positions: np.ndarray,
        interference_radii: np.ndarray,
        interrogation_radii: np.ndarray,
        tag_positions: np.ndarray,
        reader_buckets: Dict[Key, np.ndarray],
        tag_buckets: Dict[Key, np.ndarray],
        cell_keys: List[Key],
        cover_indptr: np.ndarray,
        cover_ids: np.ndarray,
        conflict_indptr: np.ndarray,
        conflict_ids: np.ndarray,
    ):
        self.spec = spec
        self.origin = origin
        self.cell_side = float(cell_side)
        self.cell_of_reader = cell_of_reader
        self.reader_positions = reader_positions
        self.interference_radii = interference_radii
        self.interrogation_radii = interrogation_radii
        self.tag_positions = tag_positions
        self._reader_buckets = reader_buckets
        self._tag_buckets = tag_buckets
        self._cell_keys = cell_keys
        self.cover_indptr = cover_indptr
        self.cover_ids = cover_ids
        self.conflict_indptr = conflict_indptr
        self.conflict_ids = conflict_ids
        #: Alive mask over readers; cleared by :meth:`retire_readers`.
        self.reader_alive = np.ones(len(reader_positions), dtype=bool)
        self.owner_of_tag = np.full(len(tag_positions), -1, dtype=np.int64)
        coverable = np.flatnonzero(np.diff(cover_indptr))
        self.owner_of_tag[coverable] = self._first_alive_owner(coverable)
        self.cells: List[ShardCell] = self._build_cells(range(len(cell_keys)))

    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        """Number of cells."""
        return len(self.cells)

    @property
    def total_halo_readers(self) -> int:
        """Halo reader slots summed over cells (readers counted once per
        cell that imports them)."""
        return int(sum(len(c.halo_reader_ids) for c in self.cells))

    def active_conflicts(self, active: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The conflict graph restricted to the distinct reader ids
        *active*, as ``(rows, cols)`` index pairs into *active*: one entry
        per ordered pair, both directions, *rows* ascending."""
        active = np.asarray(active, dtype=np.int64)
        indptr = self.conflict_indptr
        starts = indptr[active]
        lens = indptr[active + 1] - starts
        rows = np.repeat(np.arange(len(active)), lens)
        flat = np.repeat(starts - (np.cumsum(lens) - lens), lens)
        nbrs = self.conflict_ids[flat + np.arange(len(flat))]
        where = np.full(len(self.reader_positions), -1, dtype=np.int64)
        where[active] = np.arange(len(active))
        cols = where[nbrs]
        keep = cols >= 0
        return rows[keep], cols[keep]

    @cached_property
    def tags_by_reader(self) -> Tuple[np.ndarray, np.ndarray]:
        """The coverage relation as a reader-sorted CSR ``(indptr,
        tag_ids)``, each row ascending; built on first use."""
        indptr = self.cover_indptr
        tags = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
        return _csr(self.cover_ids, tags, len(self.reader_positions))

    def _first_alive_owner(self, tags: np.ndarray) -> np.ndarray:
        """Owner cell of each coverable tag in *tags*: the cell of its first
        alive pair (its lowest-id alive cover), or ``-1`` when none is."""
        indptr, n = self.cover_indptr, len(self.reader_positions)
        lens = indptr[tags + 1] - indptr[tags]
        readers = self.cover_ids[_ranges(indptr[tags], indptr[tags + 1])]
        readers = np.where(self.reader_alive[readers], readers, n)
        first = np.minimum.reduceat(readers, np.cumsum(lens) - lens)
        return np.append(self.cell_of_reader, -1)[first]

    # ------------------------------------------------------------------
    @classmethod
    def from_system(
        cls, system: RFIDSystem, spec: ShardSpec
    ) -> Optional["ShardPartition"]:
        """Partition an existing :class:`~repro.model.system.RFIDSystem`;
        ``None`` when it collapses to one cell (:meth:`from_arrays`)."""
        return cls.from_arrays(
            system.reader_positions,
            system.interference_radii,
            system.interrogation_radii,
            system.tag_positions,
            spec,
        )

    @classmethod
    def from_arrays(
        cls,
        reader_positions: np.ndarray,
        interference_radii: np.ndarray,
        interrogation_radii: np.ndarray,
        tag_positions: np.ndarray,
        spec: ShardSpec,
    ) -> Optional["ShardPartition"]:
        """Partition a deployment given as raw arrays.

        Returns ``None`` when the deployment collapses to one cell: no
        readers, ``spec.cells == 1``, a non-positive cell side, or every
        reader in one grid bucket.  Such a deployment is the unsharded
        problem, and no state is built for it beyond input validation.
        """
        with span("partition.build", cells=spec.cells):
            rpos = as_points(reader_positions, "reader_positions")
            tpos = (
                as_points(tag_positions, "tag_positions")
                if len(np.atleast_1d(tag_positions))
                else np.empty((0, 2))
            )
            R = np.asarray(interference_radii, dtype=np.float64)
            gamma = np.asarray(interrogation_radii, dtype=np.float64)
            n, m = len(rpos), len(tpos)
            if R.shape != (n,) or gamma.shape != (n,):
                raise ValueError("radii arrays must match number of readers")
            check_radii(rpos, R, gamma)

            if n == 0 or spec.cells == 1:
                return None
            all_pts = np.vstack([rpos, tpos]) if m else rpos
            mins = all_pts.min(axis=0)
            maxs = all_pts.max(axis=0)
            w, h = (maxs - mins)
            extent = float(np.sqrt(max(w, 0.0) * max(h, 0.0)))
            side = spec.cell_side(R, gamma, extent)
            if side <= 0.0:
                return None
            origin = mins

            reader_buckets = group_by_key(_bucket_keys(rpos, origin, side))
            if len(reader_buckets) <= 1:
                return None
            tag_buckets = group_by_key(_bucket_keys(tpos, origin, side))

            cell_keys = sorted(reader_buckets)
            cell_of_reader = np.empty(n, dtype=np.int64)
            for idx, key in enumerate(cell_keys):
                cell_of_reader[reader_buckets[key]] = idx

            return cls(
                spec, origin, side, cell_of_reader, rpos, R, gamma, tpos,
                reader_buckets, tag_buckets, cell_keys,
                *_cover_relation(tpos, rpos, gamma, reader_buckets, tag_buckets),
                *_conflict_graph(rpos, R, reader_buckets),
            )

    # ------------------------------------------------------------------
    def retire_readers(self, dead_ids) -> RefreshReport:
        """Apply confirmed permanent crashes as an incremental refresh.

        Marks *dead_ids* dead, re-buckets every tag they owned (via their
        cell) to the cell of its new lowest-id **alive** covering reader —
        or to ``-1`` when no alive reader covers it any more — and rebuilds
        exactly the dirtied cells: cells that lost an owned reader and
        cells that gained a tag.  Cells left without any alive owned reader
        are *emptied* (degenerate, never solved again) rather than rebuilt.
        Untouched cells are preserved object-identically, so callers can
        keep their per-cell state.  Idempotent per reader: already-dead ids
        are ignored.

        The rescan reads the coverage relation: a tag's new owner is the
        cell of its first alive pair."""
        dead = np.unique(np.asarray(dead_ids, dtype=np.int64).ravel())
        if dead.size and (
            dead.min() < 0 or dead.max() >= len(self.reader_positions)
        ):
            raise ValueError(f"reader ids out of range: {dead_ids!r}")
        dead = dead[self.reader_alive[dead]]
        if dead.size == 0:
            return RefreshReport((), (), (), 0, 0)
        self.reader_alive[dead] = False

        affected = np.unique(self.cell_of_reader[dead]).tolist()
        cells = [self.cells[ci] for ci in affected]
        tags = np.concatenate([c.tag_ids[c.owned_tag_mask] for c in cells])
        old = self.owner_of_tag[tags]
        new = self._first_alive_owner(tags)
        self.owner_of_tag[tags] = new
        lost = new < 0
        changed = (new != old) & ~lost
        dirty = set(affected) | set(np.unique(new[changed]).tolist())
        emptied = [
            ci for ci, c in zip(affected, cells)
            if not self.reader_alive[c.reader_ids].any()
        ]
        for ci in emptied:
            self._empty_cell(ci)
        rebuilt = sorted(dirty.difference(emptied))
        for ci, cell in zip(rebuilt, self._build_cells(rebuilt)):
            self.cells[ci] = cell
        return RefreshReport(
            retired=tuple(dead.tolist()),
            rebuilt_cells=tuple(rebuilt),
            emptied_cells=tuple(emptied),
            moved_tags=int(changed.sum()),
            orphaned_tags=int(lost.sum()),
        )

    def _empty_cell(self, idx: int) -> None:
        """Degenerate replacement for a cell with no alive owned reader: it
        owns nothing and is never solved again (its local id maps stay
        those of the old cell, for stale references)."""
        cell = self.cells[idx]
        self.cells[idx] = replace(
            cell,
            reader_ids=np.empty(0, dtype=np.int64),
            owned_reader_mask=np.zeros(len(cell.all_reader_ids), dtype=bool),
            owned_tag_mask=np.zeros(len(cell.tag_ids), dtype=bool),
        )

    def _build_cells(self, indices) -> List[ShardCell]:
        """Cells *indices* over the alive fleet and the current
        ``owner_of_tag`` map, in the given order: each cell's alive owned
        readers, the one-ring halo that can conflict with them or cover a
        tag they own, and the tag band (the subsystem waits for its first
        access).  Builds every cell at construction and rebuilds the cells
        a refresh dirties.

        The ``(cell, id)`` pairs of all requested cells are gathered at
        once and decided in whole-array passes (rectangle distance,
        ``reach``, band membership, per-cell maxima by ``reduceat``), then
        sorted once and sliced per cell.  Cells go in blocks of about
        :data:`BUILD_BLOCK` band pairs, which bounds the transient arrays.
        Every cell must have an alive owned reader.
        """
        indices = list(indices)
        cells: List[ShardCell] = []
        block: List[int] = []
        pairs = 0
        for ci in indices:
            kx, ky = self._cell_keys[ci]
            block.append(ci)
            pairs += sum(
                len(self._tag_buckets.get((kx + dx, ky + dy), ()))
                for dx, dy in NEIGHBOURHOOD
            )
            if pairs >= BUILD_BLOCK:
                cells += self._build_block(block)
                block, pairs = [], 0
        if block:
            cells += self._build_block(block)
        return cells

    def _build_block(self, block: List[int]) -> List[ShardCell]:
        """One block of :meth:`_build_cells`."""
        rpos, tpos = self.reader_positions, self.tag_positions
        R, gamma = self.interference_radii, self.interrogation_radii
        alive = self.reader_alive
        n, m, nb = len(rpos), len(tpos), len(block)
        side = self.cell_side
        keys = [self._cell_keys[ci] for ci in block]
        kxy = np.array(keys, dtype=np.int64).reshape(nb, 2)
        x0 = self.origin[0] + kxy[:, 0] * side
        y0 = self.origin[1] + kxy[:, 1] * side
        x1, y1 = x0 + side, y0 + side

        own_at, own = _pairs(self._reader_buckets, keys, ((0, 0),))
        keep = alive[own]
        own_at, own = own_at[keep], own[keep]
        counts = np.bincount(own_at, minlength=nb)
        own_starts = np.cumsum(counts) - counts
        R_own = np.maximum.reduceat(R[own], own_starts)
        g_own = np.maximum.reduceat(gamma[own], own_starts)

        ring_at, ring = _pairs(self._reader_buckets, keys, RING_OFFSETS)
        keep = alive[ring]
        ring_at, ring = ring_at[keep], ring[keep]
        dist = _dist_to_rect(
            rpos[ring, 0], rpos[ring, 1],
            x0[ring_at], x1[ring_at], y0[ring_at], y1[ring_at],
        )
        # reader j can conflict with an owned reader (d <= max(R_j, R_own))
        # or cover a tag owned here (d <= gamma_j + g_own); both bounds are
        # <= H <= side, so the one-ring candidates are exhaustive.
        reach = np.maximum(
            np.maximum(R[ring], R_own[ring_at]), gamma[ring] + g_own[ring_at]
        )
        keep = dist <= reach
        readers, r_bounds = _segments(
            np.concatenate([own_at, ring_at[keep]]),
            np.concatenate([own, ring[keep]]),
            n, nb,
        )
        g_inc = np.maximum.reduceat(gamma[readers], r_bounds[:-1])

        band_at, band = _pairs(self._tag_buckets, keys, NEIGHBOURHOOD)
        dist = _dist_to_rect(
            tpos[band, 0], tpos[band, 1],
            x0[band_at], x1[band_at], y0[band_at], y1[band_at],
        )
        index = np.asarray(block, dtype=np.int64)
        keep = (dist <= g_inc[band_at]) | (
            self.owner_of_tag[band] == index[band_at]
        )
        tags, t_bounds = _segments(band_at[keep], band[keep], m, nb)

        # per-cell fields as block arrays, sliced per cell below
        owned_mask = self.cell_of_reader[readers] == np.repeat(
            index, np.diff(r_bounds)
        )
        owned_tag_mask = self.owner_of_tag[tags] == np.repeat(
            index, np.diff(t_bounds)
        )
        source = (rpos, R, gamma, tpos)
        r_bounds, t_bounds = r_bounds.tolist(), t_bounds.tolist()
        cells: List[ShardCell] = []
        for p, ci in enumerate(block):
            r = slice(r_bounds[p], r_bounds[p + 1])
            t = slice(t_bounds[p], t_bounds[p + 1])
            all_readers, mask = readers[r], owned_mask[r]
            bx0, by0 = float(x0[p]), float(y0[p])
            cells.append(
                ShardCell(
                    index=ci,
                    key=keys[p],
                    bounds=(bx0, bx0 + side, by0, by0 + side),
                    reader_ids=all_readers[mask],
                    halo_reader_ids=all_readers[~mask],
                    all_reader_ids=all_readers,
                    tag_ids=tags[t],
                    owned_reader_mask=mask,
                    owned_tag_mask=owned_tag_mask[t],
                    source=source,
                )
            )
        return cells
