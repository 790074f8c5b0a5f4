"""Lloyd's k-means with k-means++ initialisation.

The training substrate for both the IVF coarse quantizer and the PQ
sub-quantizers.  Deterministic given a seed; pure numpy.

What the training guarantees, bit for bit:

* k-means++ seeding (:func:`kmeans_pp_init`) makes the draws
  ``Generator.choice(n, p=closest / total)`` would make, and consumes
  the same random numbers.
* Its distances come from the points' columns
  (:func:`_squared_distances_columns`), summed in numpy's own order for
  one point: left to right below 8 dimensions, numpy's pairwise order
  up to 128 and the plain expression above; each equals
  ``((points - centre) ** 2).sum(-1)``.
* Squared row norms (:func:`_squared_norms`) below 8 dimensions are
  summed from columns, left to right as numpy sums one point; each
  equals ``(points ** 2).sum(axis=1)``.
* Nearest-centroid passes (:func:`_nearest`) compute fixed row blocks
  into two buffers owned by the call; nothing is kept between calls and
  no returned array shares memory with them.
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
        return _nearest(self.points, len(self.centroids),
                        lambda rows, out, scratch: _squared_distances(
                            rows, self.centroids, out, scratch))

    @property
    def assignments(self) -> np.ndarray:
        """(n,) int64: the final cluster of each point."""
        return self._final_pass[0]

    @property
    def inertia(self) -> float:
        """Sum of squared distances to the assigned centroid."""
        return float(self._final_pass[1].sum())


def _squared_distances(
    points: np.ndarray,
    centroids: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """(n, k) squared L2 distances, ``max(|p|^2 + |c|^2 - 2 p.c, 0)``.

    The result goes into ``out`` and the cross term into ``scratch``
    when given (both ``(n, k)``, of the points' dtype); the arithmetic
    is the same either way."""
    p_sq = _squared_norms(points)[:, None]
    c_sq = _squared_norms(centroids)[None, :]
    cross = np.matmul(points, centroids.T, out=scratch)
    cross *= 2.0
    out = np.add(p_sq, c_sq, out=out)
    out -= cross
    return np.maximum(out, 0.0, out=out)


def _squared_norms(points: np.ndarray) -> np.ndarray:
    """``(n,)`` squared norms of ``(n, d)`` points, equal bit for bit
    to ``(points ** 2).sum(axis=1)``.

    Below 8 dimensions numpy adds one point's ``d`` squares left to
    right, and so does summing the ``(d, n)`` columns of squares, which
    makes ``d - 1`` whole-row additions instead of one short reduction
    per point: at ``d = 2`` a 1,024-row block takes ~7 us, not ~27 us
    (2-core Xeon, numpy 2.4).  Wider points keep the plain expression,
    which is faster there.
    """
    if points.shape[1] < 8:
        return np.square(points.T, order="C").sum(axis=0)
    return (points ** 2).sum(axis=1)


def _nearest(
    points: np.ndarray,
    k: int,
    distances: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """``(argmin, min)`` over each row of the ``(n, k)`` distances of
    ``points``, computed :data:`_BLOCK_ROWS` rows at a time so the whole
    matrix never exists.

    ``distances(rows, out, scratch)`` returns the distance matrix of a
    block of rows; ``out`` and ``scratch`` are ``(len(rows), k)``
    buffers of the points' dtype that it may write into.  They are
    allocated once per call and reused by every block, and the returned
    arrays never share memory with them.  Blocks start at multiples of
    ``_BLOCK_ROWS`` and the last one takes the remainder: BLAS
    multiplies a sliver of a few rows with other kernels, whose rounding
    differs from the same rows of one large product.
    """
    n = points.shape[0]
    starts = range(0, max(n - _BLOCK_ROWS, 0) + 1, _BLOCK_ROWS)
    out = np.empty((n - starts[-1], k), dtype=points.dtype)  # the largest block
    scratch = np.empty_like(out)
    nearest, nearest_distance = [], []
    for start in starts:
        stop = start + _BLOCK_ROWS if start + 2 * _BLOCK_ROWS <= n else n
        rows = stop - start
        block = distances(points[start:stop], out[:rows], scratch[:rows])
        columns = block.argmin(axis=1)
        nearest.append(columns)
        nearest_distance.append(block[np.arange(rows), columns])
    return np.concatenate(nearest), np.concatenate(nearest_distance)


#: numpy sums up to this many terms with 8 accumulators, larger counts
#: by recursive halving (``pairwise_sum`` in its ``loops_utils.h``).
_PAIRWISE_BLOCK = 128


def _squared_distances_columns(columns: np.ndarray,
                               centre: np.ndarray) -> np.ndarray:
    """Squared L2 distances from points given as columns to ``centre``.

    ``columns`` is ``(..., d, n)``, the transpose of ``(..., n, d)``
    points, and ``centre`` is ``(..., d)``; the result is ``(..., n)``
    and equal bit for bit to ``((points - centre[..., None, :]) **
    2).sum(-1)``.  That expression reduces each point's ``d`` squares
    along a short last axis, once per point; here each step adds whole
    rows of ``n`` terms instead, in the order numpy sums one point:
    left to right for ``d < 8``, and for ``8 <= d <= 128`` pairwise,
    as 8 accumulators over every 8th term, then ``((r0 + r1) + (r2 +
    r3)) + ((r4 + r5) + (r6 + r7))``, then the ``d % 8`` remaining
    terms left to right.  Above 128 terms numpy halves recursively, and
    the plain expression runs.  A C-contiguous ``columns`` saves the
    strided subtraction a ``swapaxes`` view costs.
    """
    d = columns.shape[-2]
    if d > _PAIRWISE_BLOCK:
        points = np.ascontiguousarray(columns.swapaxes(-1, -2))
        return ((points - centre[..., None, :]) ** 2).sum(-1)
    diff = np.subtract(columns, centre[..., :, None], order="C")
    squares = np.square(diff, out=diff)
    if d < 8:
        return squares.sum(-2)
    lanes = squares[..., :8, :]
    whole = d - d % 8
    for first in range(8, whole, 8):
        lanes += squares[..., first:first + 8, :]
    pairs = lanes[..., 0::2, :] + lanes[..., 1::2, :]
    total = pairs[..., 0, :] + pairs[..., 1, :]
    total += pairs[..., 2, :] + pairs[..., 3, :]
    for rest in range(whole, d):
        total += squares[..., rest, :]
    return total


def kmeans_pp_init(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by D^2 sampling.

    Each draw picks the index ``Generator.choice(n, p=closest / total)``
    picks and consumes the same one ``rng.random()``: the same float32
    weights, the same float64 cumulative sum and the same comparison of
    ``cdf / cdf[-1]`` with the uniform, without ``choice``'s per-call
    validation of ``p``.  Like ``choice``, it raises ValueError when the
    distances are not finite (NaN or inf in ``points``, or float32
    overflow).  The points' columns are built once, each draw's
    distances come from them (:func:`_squared_distances_columns`), and
    the weights and sums of every draw reuse two buffers of this call.
    """
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    columns = np.ascontiguousarray(points.T)
    centroids = np.empty((k, points.shape[1]), dtype=points.dtype)
    first = int(rng.integers(0, n))
    centroids[0] = points[first]
    closest = _squared_distances_columns(columns, centroids[0])
    weights = np.empty_like(closest)
    cdf = np.empty(n, dtype=np.float64)
    for i in range(1, k):
        total = closest.sum()
        if not np.isfinite(total):
            raise ValueError("probabilities contain NaN")
        if total <= 0:
            # All points coincide with chosen centroids: pick uniformly.
            pick = int(rng.integers(0, n))
        else:
            np.divide(closest, total, out=weights)
            np.cumsum(weights, dtype=np.float64, out=cdf)
            pick = _first_above(cdf, rng.random())
        centroids[i] = points[pick]
        np.minimum(closest, _squared_distances_columns(columns, centroids[i]),
                   out=closest)
    return centroids


def _first_above(cdf: np.ndarray, u: float) -> int:
    """The first ``i`` with ``cdf[i] / cdf[-1] > u``: the index
    ``(cdf / cdf[-1]).searchsorted(u, side="right")`` returns, without
    dividing the whole array.

    ``u * cdf[-1]`` lands the search within a rounding of the answer;
    the exact test is monotone in ``i``, so stepping over runs of equal
    sums until it flips finds the same index.
    """
    last = cdf[-1]
    i = int(cdf.searchsorted(u * last, side="right"))
    while i > 0 and cdf[i - 1] / last > u:
        i = int(cdf.searchsorted(cdf[i - 1], side="left"))
    while cdf[i] / last <= u:
        i = int(cdf.searchsorted(cdf[i], side="right"))
    return i


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
            points, k, lambda rows, out, scratch: _squared_distances(
                rows, centroids, out, scratch)
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
