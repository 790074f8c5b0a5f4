"""Lloyd's k-means with k-means++ initialisation.

The training substrate for both the IVF coarse quantizer and the PQ
sub-quantizers.  Deterministic given a seed; pure numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = ["KMeansResult", "kmeans", "kmeans_pp_init"]

#: Rows per block of a nearest-centroid pass.  A block of 1,024 rows
#: against 256 centroids is a 1 MiB distance matrix, which stays in
#: cache; over (20000, 2) or (20000, 32) points and 256 centroids one
#: pass takes 13-16 ms at 256-2,048 rows, against 23-27 ms unblocked
#: and 22-26 ms at 8,192 rows (2-core Xeon, OpenBLAS 0.3.31).  It must
#: stay a multiple of 16: for k = 1 BLAS runs a matrix-vector kernel
#: over groups of 16 rows, and a block starting inside a group rounds
#: its rows differently.
_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class KMeansResult:
    """Trained centroids plus diagnostics.

    ``assignments`` and ``inertia`` come from one more nearest-centroid
    pass over the training points, run on the first read of either:
    callers that keep only the centroids never pay for it.
    """

    centroids: np.ndarray   # (k, dim) float32
    n_iterations: int
    points: np.ndarray = field(repr=False)  # the training points

    @cached_property
    def _final_pass(self) -> tuple[np.ndarray, np.ndarray]:
        return _nearest(self.points,
                        lambda rows: _squared_distances(rows, self.centroids))

    @property
    def assignments(self) -> np.ndarray:
        """(n,) int64: the final cluster of each point."""
        return self._final_pass[0]

    @property
    def inertia(self) -> float:
        """Sum of squared distances to the assigned centroid."""
        return float(self._final_pass[1].sum())


def _squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) squared L2 distances, ``max(|p|^2 + |c|^2 - 2 p.c, 0)``."""
    p_sq = (points ** 2).sum(axis=1)[:, None]
    c_sq = (centroids ** 2).sum(axis=1)[None, :]
    cross = points @ centroids.T
    cross *= 2.0
    out = p_sq + c_sq
    out -= cross
    return np.maximum(out, 0.0, out=out)


def _nearest(
    points: np.ndarray, distances: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """``(argmin, min)`` over each row of ``distances(points)``, computed
    :data:`_BLOCK_ROWS` rows at a time so the whole ``(n, k)`` matrix
    never exists.

    ``distances`` maps a block of rows to its distance matrix.  Blocks
    start at multiples of ``_BLOCK_ROWS`` and the last one takes the
    remainder: BLAS multiplies a sliver of a few rows with other kernels,
    whose rounding differs from the same rows of one large product.
    """
    n = points.shape[0]
    nearest, nearest_distance = [], []
    for start in range(0, max(n - _BLOCK_ROWS, 0) + 1, _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS if start + 2 * _BLOCK_ROWS <= n else n
        block = distances(points[start:stop])
        columns = block.argmin(axis=1)
        nearest.append(columns)
        nearest_distance.append(block[np.arange(stop - start), columns])
    return np.concatenate(nearest), np.concatenate(nearest_distance)


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
    Each iteration assigns the points in row blocks (:func:`_nearest`)
    and sums each cluster's points in float64, in point order.  The
    result's ``assignments`` and ``inertia`` are computed on first read.
    """
    points = np.ascontiguousarray(points, dtype=np.float32)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D array")
    rng = np.random.default_rng(seed)
    centroids = kmeans_pp_init(points, k, rng)
    previous_inertia = np.inf
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        assignments, nearest_distance = _nearest(
            points, lambda rows: _squared_distances(rows, centroids)
        )
        inertia = float(nearest_distance.sum())
        counts = np.bincount(assignments, minlength=k)
        sums = _cluster_sums(points, assignments, k)
        non_empty = counts > 0
        centroids[non_empty] = (
            sums[non_empty] / counts[non_empty, None]
        ).astype(np.float32)
        for empty in np.flatnonzero(~non_empty):
            centroids[empty] = points[int(nearest_distance.argmax())]
        if previous_inertia - inertia <= tolerance * max(previous_inertia, 1.0):
            break
        previous_inertia = inertia
    return KMeansResult(centroids=centroids, n_iterations=iteration,
                        points=points)


def _cluster_sums(points: np.ndarray, assignments: np.ndarray,
                  k: int) -> np.ndarray:
    """``(k, dim)`` float64 sums of each cluster's points.

    One ``bincount`` per dimension adds the float64 values in point
    order, as ``np.add.at(sums, assignments, points)`` does, and is
    several times faster."""
    sums = np.empty((k, points.shape[1]), dtype=np.float64)
    for dim in range(points.shape[1]):
        sums[:, dim] = np.bincount(assignments, weights=points[:, dim],
                                   minlength=k)
    return sums
