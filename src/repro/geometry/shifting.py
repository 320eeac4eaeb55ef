"""Hierarchical ``(r, s)``-shifted subdivision (Section IV of the paper).

The PTAS of Algorithm 1 classifies interference disks into *levels* by
radius, overlays a grid per level whose spacing shrinks by ``(k+1)`` per
level, and keeps only *survive* disks — those that do not touch the boundary
of any same-level square of the ``(r, s)``-shifted subdivision.  Because
``k+1 ≡ 1 (mod k)``, a shifted line at level ``j`` is also a shifted line at
level ``j+1`` for the *same* ``(r, s)``, so squares nest cleanly: every
``j``-square is tiled by ``(k+1)²`` child ``(j+1)``-squares.

This module is pure geometry/arithmetic; the dynamic program that runs on top
of it lives in :mod:`repro.core.ptas`.

Conventions
-----------
* Radii are pre-scaled with :func:`scale_radii` so the largest interference
  radius is ``1/2`` (largest diameter 1 — a level-0 disk).
* Level of a disk with scaled radius ``R``:
  ``1/(k+1)^{j+1} < 2R ≤ 1/(k+1)^j``, i.e. ``j = floor(log_{k+1} 1/(2R))``.
* Grid spacing at level ``j``: ``sp_j = (k+1)^{-j}``.  The shifted vertical
  lines of level ``j`` are ``x = v·sp_j`` for integer ``v ≡ r (mod k)``;
  horizontal lines use ``s``.
* A disk *hits* a vertical line at ``x = a`` iff ``a − R < x_c ≤ a + R``
  (paper definition, half-open to break ties deterministically).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.geometry.points import as_points


def scale_radii(radii: np.ndarray) -> Tuple[np.ndarray, float]:
    """Scale *radii* so the maximum becomes ``1/2``.

    Returns ``(scaled_radii, factor)`` with ``scaled = radii * factor``.
    Positions must be scaled by the same factor by the caller.
    """
    radii = np.asarray(radii, dtype=np.float64)
    if radii.size == 0:
        return radii.copy(), 1.0
    rmax = float(radii.max())
    if rmax <= 0:
        raise ValueError("all radii are non-positive; cannot scale")
    factor = 0.5 / rmax
    return radii * factor, factor


def disk_levels(scaled_radii: np.ndarray, k: int) -> np.ndarray:
    """Level index per disk for grid parameter *k* (radii pre-scaled).

    Level ``j`` holds disks with ``1/(k+1)^{j+1} < 2R ≤ 1/(k+1)^j``.
    """
    if k < 2:
        raise ValueError(f"grid parameter k must be >= 2, got {k}")
    scaled = np.asarray(scaled_radii, dtype=np.float64)
    if scaled.size and float(scaled.max()) > 0.5 + 1e-12:
        raise ValueError("radii must be scaled so the maximum is 1/2")
    if np.any(scaled <= 0):
        raise ValueError("scaled radii must be strictly positive")
    base = float(k + 1)
    # j = floor(log_{k+1}(1/(2R))); guard the boundary 2R == (k+1)^{-j}
    # against round-off so the closed upper end stays in level j.
    raw = np.log(1.0 / (2.0 * scaled)) / np.log(base)
    levels = np.floor(raw + 1e-9).astype(np.int64)
    return np.maximum(levels, 0)


def _grid_cell(coord: float, level: int, k: int, residue: int) -> int:
    """``floor((coord·(k+1)^level − residue) / k)``, the index of the
    *level*-square column (or row) holding *coord*, in exact integer
    arithmetic on the float's dyadic value.  Rounding ``coord / sp`` per
    level could put a point near a shared boundary on different sides at
    different levels; exact arithmetic keeps every level's square the
    parent of the next level's (the nesting the PTAS relies on)."""
    num, den = float(coord).as_integer_ratio()
    return (num * (k + 1) ** level - residue * den) // (k * den)


def _interval_hits_lines(x: float, radius: float, sp: float, k: int, residue: int) -> bool:
    """Whether ``[x − R, x + R)`` contains a line ``v·sp`` with
    ``v ≡ residue (mod k)``; Python ints throughout, so deep levels with
    huge line indices cannot overflow."""
    lo = math.ceil((x - radius) / sp - 1e-12)
    hi = math.floor((x + radius) / sp)
    # exclude the right-open end: a = x + R does not hit
    while hi * sp >= x + radius - 1e-15:
        hi -= 1
    # some v in [lo, hi] with v ≡ residue (mod k)?
    return (hi - residue) // k > (lo - 1 - residue) // k


@dataclass(frozen=True, order=True)
class Square:
    """A ``level``-square of the shifted subdivision, addressed by the column
    and row of its bottom-left shifted-line pair."""

    level: int
    col: int
    row: int


class ShiftedHierarchy:
    """Geometry of one ``(r, s)``-shifting of the level hierarchy.

    Parameters
    ----------
    centers:
        ``(n, 2)`` disk centers, already scaled by the same factor as radii.
    scaled_radii:
        ``(n,)`` interference radii with ``max == 1/2``.
    k:
        Shifting parameter (``k ≥ 2``); approximation factor ``(1−1/k)²``.
    r, s:
        Shift residues, ``0 ≤ r, s < k``.
    """

    def __init__(
        self,
        centers: np.ndarray,
        scaled_radii: np.ndarray,
        k: int,
        r: int,
        s: int,
    ):
        self.centers = as_points(centers, "centers")
        self.radii = np.asarray(scaled_radii, dtype=np.float64)
        if self.radii.shape != (len(self.centers),):
            raise ValueError("centers and scaled_radii length mismatch")
        if k < 2:
            raise ValueError(f"grid parameter k must be >= 2, got {k}")
        if not (0 <= r < k and 0 <= s < k):
            raise ValueError(f"shift residues must be in [0, k), got r={r}, s={s}")
        self.k = int(k)
        self.r = int(r)
        self.s = int(s)
        self.levels = disk_levels(self.radii, k)
        self._survive = self._compute_survive()

    # ------------------------------------------------------------------
    # grid arithmetic
    # ------------------------------------------------------------------
    def spacing(self, level: int) -> float:
        """Grid spacing ``(k+1)^{-level}`` at *level*."""
        return float(self.k + 1) ** (-int(level))

    def square_side(self, level: int) -> float:
        """Side length ``k · sp_level`` of a *level*-square."""
        return self.k * self.spacing(level)

    def square_at(self, level: int, point) -> Square:
        """The *level*-square containing *point* (half-open cells: a point on
        a shifted line belongs to the square on its right/top)."""
        level = int(level)
        col = _grid_cell(point[0], level, self.k, self.r)
        row = _grid_cell(point[1], level, self.k, self.s)
        return Square(level, col, row)

    def square_bounds(self, sq: Square) -> Tuple[float, float, float, float]:
        """``(x0, x1, y0, y1)`` of *sq* (left/bottom closed, right/top open)."""
        sp = self.spacing(sq.level)
        x0 = (self.r + sq.col * self.k) * sp
        y0 = (self.s + sq.row * self.k) * sp
        side = self.k * sp
        return (x0, x0 + side, y0, y0 + side)

    def children(self, sq: Square) -> List[Square]:
        """The ``(k+1)²`` child ``(level+1)``-squares tiling *sq*."""
        c0 = self.r + sq.col * (self.k + 1)
        r0 = self.s + sq.row * (self.k + 1)
        return [
            Square(sq.level + 1, c0 + dc, r0 + dr)
            for dc in range(self.k + 1)
            for dr in range(self.k + 1)
        ]

    def parent(self, sq: Square) -> Square:
        """The ``(level−1)``-square containing *sq*."""
        if sq.level <= 0:
            raise ValueError("level-0 squares have no parent")
        col = (sq.col - self.r) // (self.k + 1)
        row = (sq.row - self.s) // (self.k + 1)
        return Square(sq.level - 1, col, row)

    def ancestor(self, sq: Square, level: int) -> Square:
        """Ancestor of *sq* at the given shallower *level*."""
        if level > sq.level:
            raise ValueError("ancestor level must be <= square level")
        out = sq
        while out.level > level:
            out = self.parent(out)
        return out

    # ------------------------------------------------------------------
    # hit / survive predicates
    # ------------------------------------------------------------------
    def survives(self, i: int) -> bool:
        """Whether disk *i* survives this shifting (Section IV): it hits no
        shifted line of its own level, hence lies strictly inside one
        ``level``-square."""
        return bool(self._survive[i])

    def _compute_survive(self) -> np.ndarray:
        n = len(self.centers)
        out = np.zeros(n, dtype=bool)
        if n == 0:
            return out
        # One spacing per level, plain Python floats for the scalar loop.
        spacings = {int(lev): self.spacing(int(lev)) for lev in set(self.levels.tolist())}
        k, r, s = self.k, self.r, self.s
        xs = self.centers[:, 0].tolist()
        ys = self.centers[:, 1].tolist()
        rads = self.radii.tolist()
        levs = self.levels.tolist()
        for i in range(n):
            sp = spacings[levs[i]]
            rad = rads[i]
            if _interval_hits_lines(xs[i], rad, sp, k, r):
                continue
            if _interval_hits_lines(ys[i], rad, sp, k, s):
                continue
            out[i] = True
        return out

    @property
    def survive_mask(self) -> np.ndarray:
        """Boolean mask over disks: survives this ``(r, s)``-shifting."""
        return self._survive.copy()

    def survive_indices(self) -> np.ndarray:
        """Indices of disks surviving this shifting."""
        return np.flatnonzero(self._survive)

    def home_square(self, i: int) -> Square:
        """The ``level(i)``-square strictly containing survive disk *i*."""
        if not self._survive[i]:
            raise ValueError(f"disk {i} does not survive shift ({self.r},{self.s})")
        return self.square_at(int(self.levels[i]), self.centers[i])

    def disk_intersects_square(self, i: int, sq: Square) -> bool:
        """Closed-disk vs closed-square intersection test (used to restrict
        interface sets ``I`` to child squares in the DP)."""
        from repro.geometry.disks import disk_intersects_rect

        x0, x1, y0, y1 = self.square_bounds(sq)
        return disk_intersects_rect(self.centers[i], float(self.radii[i]), x0, x1, y0, y1)

    def disk_inside_square(self, i: int, sq: Square) -> bool:
        """Whether disk *i* lies entirely inside *sq* (boundary allowed)."""
        x0, x1, y0, y1 = self.square_bounds(sq)
        x, y = self.centers[i]
        rad = float(self.radii[i])
        return (
            x - rad >= x0 - 1e-12
            and x + rad <= x1 + 1e-12
            and y - rad >= y0 - 1e-12
            and y + rad <= y1 + 1e-12
        )

    def max_level(self) -> int:
        """Deepest level present among the disks."""
        return int(self.levels.max()) if len(self.levels) else 0
