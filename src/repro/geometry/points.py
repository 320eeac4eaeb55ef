"""Vectorised point/distance kernels.

All functions take ``(n, 2)`` float arrays and avoid Python-level loops; the
coverage and interference matrices for the paper's 50-reader / 1200-tag
workload are built in a handful of BLAS calls.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import check_finite_array


def as_points(points: np.ndarray, name: str = "points") -> np.ndarray:
    """Coerce input into a float64 ``(n, 2)`` array, validating shape."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1 and arr.shape == (2,):
        arr = arr[np.newaxis, :]
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"{name} must have shape (n, 2), got {arr.shape}")
    return check_finite_array(name, arr)


def pairwise_sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape ``(len(a), len(b))``.

    Uses the expansion ``|a-b|^2 = |a|^2 + |b|^2 - 2 a.b`` so the heavy
    lifting is a single matrix product; negatives from round-off are clipped.
    """
    sq = _sq_distances(as_points(a, "a"), as_points(b, "b"))
    np.maximum(sq, 0.0, out=sq)
    return sq


def _sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The unvalidated, unclipped core of :func:`pairwise_sq_distances`,
    for float64 ``(n, 2)`` arrays validated upstream.  Round-off may leave
    tiny negatives, which is harmless against a non-negative threshold."""
    a_sq = np.einsum("ij,ij->i", a, a)
    b_sq = np.einsum("ij,ij->i", b, b)
    return a_sq[:, None] + b_sq[None, :] - 2.0 * (a @ b.T)


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix, shape ``(len(a), len(b))``."""
    return np.sqrt(pairwise_sq_distances(a, b))


def distances_to(points: np.ndarray, origin: np.ndarray) -> np.ndarray:
    """Distances from each point to a single *origin*, shape ``(n,)``."""
    points = as_points(points, "points")
    origin = np.asarray(origin, dtype=np.float64).reshape(2)
    delta = points - origin[None, :]
    return np.hypot(delta[:, 0], delta[:, 1])


def points_in_radius(points: np.ndarray, origin: np.ndarray, radius: float) -> np.ndarray:
    """Indices of *points* within (closed) *radius* of *origin*."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    d = distances_to(points, origin)
    return np.flatnonzero(d <= radius)
