"""Lloyd's k-means with k-means++ initialisation.

The training substrate for both the IVF coarse quantizer and the PQ
sub-quantizers.  Deterministic given a seed; pure numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["KMeansResult", "kmeans", "kmeans_pp_init"]


@dataclass(frozen=True)
class KMeansResult:
    """Trained centroids plus diagnostics."""

    centroids: np.ndarray   # (k, dim) float32
    assignments: np.ndarray  # (n,) int64 — final cluster of each point
    inertia: float           # sum of squared distances to assigned centroid
    n_iterations: int


def _squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) squared L2 distances, ``max(|p|^2 + |c|^2 - 2 p.c, 0)``."""
    p_sq = (points ** 2).sum(axis=1)[:, None]
    c_sq = (centroids ** 2).sum(axis=1)[None, :]
    cross = points @ centroids.T
    cross *= 2.0
    out = p_sq + c_sq
    out -= cross
    return np.maximum(out, 0.0, out=out)


def _squared_distances_to(points: np.ndarray, centre: np.ndarray) -> np.ndarray:
    """Squared L2 distances from each row of ``points`` to ``centre``.

    ``points`` is ``(..., n, d)`` and ``centre`` is ``(..., d)``; the
    result is ``(..., n)`` and equal bit for bit to
    ``((points - centre[..., None, :]) ** 2).sum(-1)``.  numpy sums 8 or
    more terms pairwise, so for ``d >= 8`` that expression is what runs.
    Fewer than 8 terms numpy adds left to right, and so does a sum over
    axis -2 of a C-order ``(..., d, n)`` slab, which adds whole rows at a
    time instead of reducing a short last axis once per point: several
    times faster.
    """
    if points.shape[-1] >= 8:
        return ((points - centre[..., None, :]) ** 2).sum(-1)
    return _squared_distances_columns(points.swapaxes(-1, -2), centre)


def _squared_distances_columns(columns: np.ndarray,
                               centre: np.ndarray) -> np.ndarray:
    """The ``d < 8`` branch of :func:`_squared_distances_to`, given the
    points as ``(..., d, n)`` columns; a C-contiguous ``columns`` saves
    the strided subtraction a ``swapaxes`` view costs."""
    diff = np.subtract(columns, centre[..., :, None], order="C")
    return np.square(diff, out=diff).sum(-2)


def kmeans_pp_init(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by D^2 sampling.

    Each draw is the one ``Generator.choice(n, p=closest / total)``
    makes: the same float64 cumulative sum, one ``rng.random()`` and the
    same index, without ``choice``'s per-call validation of ``p``.  Like
    ``choice``, it raises ValueError when the distances are not finite
    (NaN or inf in ``points``, or float32 overflow).
    """
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    centroids = np.empty((k, points.shape[1]), dtype=points.dtype)
    first = int(rng.integers(0, n))
    centroids[0] = points[first]
    closest = _squared_distances_to(points, centroids[0])
    for i in range(1, k):
        total = closest.sum()
        if not np.isfinite(total):
            raise ValueError("probabilities contain NaN")
        if total <= 0:
            # All points coincide with chosen centroids: pick uniformly.
            pick = int(rng.integers(0, n))
        else:
            cdf = np.cumsum(closest / total, dtype=np.float64)
            cdf /= cdf[-1]
            pick = int(cdf.searchsorted(rng.random(), side="right"))
        centroids[i] = points[pick]
        np.minimum(
            closest, _squared_distances_to(points, centroids[i]), out=closest
        )
    return centroids


def kmeans(
    points: np.ndarray,
    k: int,
    max_iterations: int = 25,
    tolerance: float = 1e-4,
    seed: int = 0,
) -> KMeansResult:
    """Train ``k`` centroids on ``points`` with Lloyd's algorithm.

    Empty clusters are re-seeded from the points farthest from their
    centroid, so the result always has ``k`` non-degenerate centroids.
    """
    points = np.ascontiguousarray(points, dtype=np.float32)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D array")
    rng = np.random.default_rng(seed)
    centroids = kmeans_pp_init(points, k, rng)
    previous_inertia = np.inf
    assignments = np.zeros(points.shape[0], dtype=np.int64)
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        distances = _squared_distances(points, centroids)
        assignments = distances.argmin(axis=1)
        inertia = float(distances[np.arange(len(points)), assignments].sum())
        counts = np.bincount(assignments, minlength=k)
        sums = np.zeros_like(centroids, dtype=np.float64)
        np.add.at(sums, assignments, points)
        non_empty = counts > 0
        centroids[non_empty] = (
            sums[non_empty] / counts[non_empty, None]
        ).astype(np.float32)
        for empty in np.flatnonzero(~non_empty):
            farthest = int(
                distances[np.arange(len(points)), assignments].argmax()
            )
            centroids[empty] = points[farthest]
        if previous_inertia - inertia <= tolerance * max(previous_inertia, 1.0):
            break
        previous_inertia = inertia
    distances = _squared_distances(points, centroids)
    assignments = distances.argmin(axis=1)
    inertia = float(distances[np.arange(len(points)), assignments].sum())
    return KMeansResult(
        centroids=centroids,
        assignments=assignments,
        inertia=inertia,
        n_iterations=iteration,
    )
