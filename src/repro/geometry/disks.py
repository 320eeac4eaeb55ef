"""Disk primitives and the paper's independence predicate.

Definition 2 (Feasible Scheduling Set): readers ``v_i`` and ``v_j`` are
*independent* iff neither lies in the other's interference disk, i.e.
``‖v_i − v_j‖ > max(R_i, R_j)``.  A feasible scheduling set is a pairwise
independent subset, which is exactly an independent set of the (undirected)
interference graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.points import _sq_distances, as_points
from repro.util.validation import check_positive


@dataclass(frozen=True)
class Disk:
    """A closed disk — used for interference (radius ``R``) and interrogation
    (radius ``γ``) regions alike."""

    x: float
    y: float
    radius: float

    def __post_init__(self) -> None:
        check_positive("radius", self.radius, strict=False)

    @property
    def center(self) -> np.ndarray:
        """Center as a (2,) array."""
        return np.array([self.x, self.y], dtype=np.float64)

    def contains(self, point) -> bool:
        """Closed-disk membership test."""
        px, py = float(point[0]), float(point[1])
        return (px - self.x) ** 2 + (py - self.y) ** 2 <= self.radius**2

    def intersects(self, other: "Disk") -> bool:
        """Whether the two closed disks overlap."""
        d2 = (self.x - other.x) ** 2 + (self.y - other.y) ** 2
        return d2 <= (self.radius + other.radius) ** 2

    def independent_from(self, other: "Disk") -> bool:
        """Paper independence: neither center inside the other disk."""
        d2 = (self.x - other.x) ** 2 + (self.y - other.y) ** 2
        return d2 > max(self.radius, other.radius) ** 2


def disk_contains_points(center, radius: float, points: np.ndarray) -> np.ndarray:
    """Boolean mask of *points* inside the closed disk."""
    points = as_points(points, "points")
    cx, cy = float(center[0]), float(center[1])
    dx = points[:, 0] - cx
    dy = points[:, 1] - cy
    return dx * dx + dy * dy <= float(radius) ** 2


def disk_intersects_rect(
    center, radius: float, x0: float, x1: float, y0: float, y1: float
) -> bool:
    """Whether a closed disk intersects the axis-aligned rectangle
    ``[x0, x1] × [y0, y1]`` — clamp the center into the rectangle and compare
    the residual distance with the radius."""
    cx, cy = float(center[0]), float(center[1])
    nx = min(max(cx, x0), x1)
    ny = min(max(cy, y0), y1)
    return (cx - nx) ** 2 + (cy - ny) ** 2 <= float(radius) ** 2


def disks_independent(centers: np.ndarray, radii: np.ndarray, i: int, j: int) -> bool:
    """Pairwise independence test for disks *i*, *j* of an array-of-disks."""
    centers = as_points(centers, "centers")
    radii = np.asarray(radii, dtype=np.float64)
    d2 = float(np.sum((centers[i] - centers[j]) ** 2))
    return d2 > float(max(radii[i], radii[j])) ** 2


def mutual_interference_matrix(centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Directed containment matrix ``M[i, j] = True`` iff reader *i* lies in
    reader *j*'s interference disk (``‖v_i − v_j‖ ≤ R_j``), diagonal False.

    ``M[i, j]`` is the RTc predicate: if both *i* and *j* are active, reader
    *i*'s tag responses are drowned by *j*'s carrier.
    """
    centers = as_points(centers, "centers")
    radii = np.asarray(radii, dtype=np.float64)
    if radii.shape != (len(centers),):
        raise ValueError(
            f"radii must have shape ({len(centers)},), got {radii.shape}"
        )
    return _containment(centers, radii)


def _containment(centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """The unvalidated core of :func:`mutual_interference_matrix`, for a
    float64 ``(n, 2)`` array and ``(n,)`` radii validated upstream."""
    m = _sq_distances(centers, centers) <= (radii[None, :] ** 2)
    np.fill_diagonal(m, False)
    return m


def independence_matrix(centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Symmetric matrix ``A[i, j] = True`` iff disks *i*, *j* are independent
    (Definition 2).  The complement (off-diagonal) is the interference-graph
    adjacency."""
    m = mutual_interference_matrix(centers, radii)
    conflict = m | m.T
    ind = ~conflict
    np.fill_diagonal(ind, False)
    return ind
