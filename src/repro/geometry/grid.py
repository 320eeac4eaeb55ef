"""Uniform spatial hash grid.

Bucketing points into square cells turns "who is within distance d of p?"
into a constant number of bucket scans.  The shard partition buckets
readers and tags with the same :func:`group_by_key`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.geometry.points import as_points
from repro.util.validation import check_positive


def group_by_key(keys: np.ndarray) -> Dict[Tuple[int, int], np.ndarray]:
    """Row indices of the ``(k, 2)`` integer *keys*, grouped by key.

    One lexsort over the keys; lexsort is stable, so every group is
    ascending and queries need no per-bucket sort.
    """
    if len(keys) == 0:
        return {}
    order = np.lexsort((keys[:, 1], keys[:, 0]))
    sorted_keys = keys[order]
    change = np.flatnonzero((sorted_keys[1:] != sorted_keys[:-1]).any(axis=1))
    starts = np.concatenate(([0], change + 1))
    ends = np.append(starts[1:], len(order))
    return {
        (kx, ky): order[s:e]
        for (kx, ky), s, e in zip(
            sorted_keys[starts].tolist(), starts.tolist(), ends.tolist()
        )
    }


class SpatialHashGrid:
    """Static spatial hash over a fixed point set.

    Parameters
    ----------
    points:
        ``(n, 2)`` array of point coordinates.
    cell_size:
        Side length of the square buckets.  Queries with radius ≈ cell_size
        touch at most 9 buckets; pick the typical query radius.
    """

    def __init__(self, points: np.ndarray, cell_size: float):
        self._points = as_points(points, "points")
        self._cell = check_positive("cell_size", cell_size)
        self._buckets: Dict[Tuple[int, int], np.ndarray] = group_by_key(
            np.floor(self._points / self._cell).astype(np.int64)
        )

    def __len__(self) -> int:
        return len(self._points)

    @property
    def points(self) -> np.ndarray:
        """The stored point array."""
        return self._points

    @property
    def cell_size(self) -> float:
        """Bucket side length."""
        return self._cell

    def _cells_overlapping(self, origin, radius: float) -> Iterable[Tuple[int, int]]:
        ox, oy = float(origin[0]), float(origin[1])
        kx0 = int(np.floor((ox - radius) / self._cell))
        kx1 = int(np.floor((ox + radius) / self._cell))
        ky0 = int(np.floor((oy - radius) / self._cell))
        ky1 = int(np.floor((oy + radius) / self._cell))
        for kx in range(kx0, kx1 + 1):
            for ky in range(ky0, ky1 + 1):
                yield (kx, ky)

    def query_radius(self, origin, radius: float) -> np.ndarray:
        """Indices of stored points within (closed) *radius* of *origin*,
        in ascending index order."""
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        ox, oy = float(origin[0]), float(origin[1])
        parts: List[np.ndarray] = []
        for key in self._cells_overlapping(origin, radius):
            bucket = self._buckets.get(key)
            if bucket is not None:
                parts.append(bucket)
        if not parts:
            return np.empty(0, dtype=np.int64)
        # A single bucket is already sorted; multiple buckets need one
        # C-level sort of the (usually small) survivor set.
        cand = parts[0] if len(parts) == 1 else np.concatenate(parts)
        pts = self._points[cand]
        dx = pts[:, 0] - ox
        dy = pts[:, 1] - oy
        inside = dx * dx + dy * dy <= radius * radius
        hits = cand[inside]
        return hits if len(parts) == 1 else np.sort(hits)

    def count_in_radius(self, origin, radius: float) -> int:
        """Number of stored points within *radius* of *origin*."""
        return int(len(self.query_radius(origin, radius)))

    def pairs_within(self, radius: float) -> List[Tuple[int, int]]:
        """All unordered pairs ``(i, j)``, ``i < j``, within *radius* of each
        other, in lexicographic order.  Used to build bounded-radius
        neighbour graphs in O(n · bucket) instead of O(n²).

        Candidates are gathered per *bucket pair* and filtered with one
        vectorised distance test per pair of buckets: same-bucket pairs via
        the upper triangle, cross-bucket pairs via each forward offset
        visited exactly once — so no per-point Python loop and no dedup set.
        """
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        r2 = radius * radius
        reach = int(np.ceil(radius / self._cell)) if radius > 0 else 0
        # Forward half of the (2·reach+1)² neighbourhood: each unordered
        # bucket pair is visited exactly once.
        offsets = [
            (dx, dy)
            for dx in range(0, reach + 1)
            for dy in range(-reach, reach + 1)
            if (dx, dy) > (0, 0) or (dx == 0 and dy > 0)
        ]
        lo_parts: List[np.ndarray] = []
        hi_parts: List[np.ndarray] = []
        for key, a in self._buckets.items():
            pa = self._points[a]
            if len(a) > 1:
                ii, jj = np.triu_indices(len(a), k=1)
                diff = pa[ii] - pa[jj]
                close = (diff * diff).sum(axis=1) <= r2
                # buckets are ascending, so a[ii] < a[jj] already
                lo_parts.append(a[ii[close]])
                hi_parts.append(a[jj[close]])
            for dx, dy in offsets:
                # nearest possible approach between the two buckets
                gx = max(abs(dx) - 1, 0)
                gy = max(abs(dy) - 1, 0)
                if (gx * gx + gy * gy) * self._cell * self._cell > r2:
                    continue
                b = self._buckets.get((key[0] + dx, key[1] + dy))
                if b is None:
                    continue
                pb = self._points[b]
                diff = pa[:, None, :] - pb[None, :, :]
                close = (diff * diff).sum(axis=-1) <= r2
                ai, bj = np.nonzero(close)
                if ai.size:
                    ga, gb = a[ai], b[bj]
                    lo_parts.append(np.minimum(ga, gb))
                    hi_parts.append(np.maximum(ga, gb))
        if not lo_parts:
            return []
        lo = np.concatenate(lo_parts)
        hi = np.concatenate(hi_parts)
        order = np.lexsort((hi, lo))
        return [(int(i), int(j)) for i, j in zip(lo[order], hi[order])]
