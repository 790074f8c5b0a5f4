"""Unit tests for k-means."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fanns.kmeans import (
    _BLOCK_ROWS,
    _DRAW_BLOCK,
    _cluster_sums,
    _d2_pick,
    _first_above,
    _nearest,
    _squared_distances,
    _squared_distances_columns,
    _squared_norms,
    kmeans,
    kmeans_pp_init,
)

#: The module itself; ``repro.fanns.kmeans`` names the function.
_KMEANS = importlib.import_module("repro.fanns.kmeans")


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
        (20_000, 2, 256, False),   # a PQ subspace seeding
        (20_000, 32, 256, False),  # the IVF coarse seeding
        (20_000, 2, 256, True),    # half the distances are zero
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
    for seed in range(3 if n < 10_000 else 1):
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


#: Term counts around every branch of numpy's pairwise sum: left to
#: right below 8, 8 accumulators up to 128 (with and without a
#: remainder), recursive halving above.
_DIMS = tuple(range(1, 34)) + (64, 127, 128, 129, 200)


@pytest.mark.parametrize("lead", [(), (3,)])
def test_squared_distances_to_is_the_plain_expression(lead):
    """The column form sums in numpy's own order; a numpy release that
    changes its pairwise order fails here."""
    rng = np.random.default_rng(len(lead))
    for d in _DIMS:
        for n in (1, 5, 257):
            points = rng.standard_normal(lead + (n, d)).astype(np.float32)
            centre = rng.standard_normal(lead + (d,)).astype(np.float32)
            want = ((points - centre[..., None, :]) ** 2).sum(-1)
            columns = points.swapaxes(-1, -2)
            for form in (columns, np.ascontiguousarray(columns)):
                got = _squared_distances_columns(form, centre)
                assert got.shape == lead + (n,)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), (d, n)


def test_squared_distances_columns_leave_their_inputs():
    rng = np.random.default_rng(5)
    for d in (2, 32, 200):
        columns = rng.standard_normal((d, 300)).astype(np.float32)
        centre = rng.standard_normal(d).astype(np.float32)
        before = columns.copy(), centre.copy()
        got = _squared_distances_columns(columns, centre)
        assert np.array_equal(columns, before[0])
        assert np.array_equal(centre, before[1])
        assert not np.shares_memory(got, columns)


def test_squared_norms_are_the_plain_expression():
    """Row norms from columns below 8 dimensions, the plain reduction
    above, equal to ``(points ** 2).sum(axis=1)`` on contiguous blocks
    and on the strided column slices ``ProductQuantizer.encode`` hands
    it; the input is left as it was."""
    rng = np.random.default_rng(11)
    wide = rng.standard_normal((1_100, 64)).astype(np.float32)
    for d in (1, 2, 3, 7, 8, 9, 32):
        for points in (wide[:1_024, :d].copy(), wide[:257, 5:5 + d],
                       wide[:0, :d]):
            before = points.copy()
            want = (points ** 2).sum(axis=1)
            got = _squared_norms(points)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want), (d, points.shape)
            assert np.array_equal(points, before)


@pytest.mark.parametrize("normalise", [False, True])
@pytest.mark.parametrize("n", [1, 2, 7, 1000])
def test_first_above_is_the_normalised_searchsorted(n, normalise):
    """Every uniform lands where ``choice``'s ``cdf / cdf[-1]`` puts it,
    also on runs of equal sums (zero weights) and at the edges.  A sum
    far from 1 makes ``u * cdf[-1]`` miss by a rounding, which the
    search must step over."""
    rng = np.random.default_rng(n)
    weights = rng.random(n).astype(np.float32)
    weights[rng.random(n) < 0.5] = 0.0
    weights[-1] = 1.0
    if normalise:
        weights /= weights.sum()
    cdf = np.cumsum(weights, dtype=np.float64)
    normalised = cdf / cdf[-1]
    uniforms = np.concatenate([
        rng.random(500), normalised, np.nextafter(normalised, 0.0),
        np.nextafter(normalised, 1.0), [0.0, np.nextafter(1.0, 0.0)],
    ])
    for u in uniforms[(uniforms >= 0) & (uniforms < 1)]:
        want = int(normalised.searchsorted(u, side="right"))
        assert _first_above(cdf, float(u)) == want


def _draw_weights(n, pattern):
    """float32 D^2 weights of ``n`` points, all summing above zero."""
    rng = np.random.default_rng(n)
    if pattern == "zero runs":
        weights = rng.random(n).astype(np.float32)
        for start in range(0, n, 3 * _DRAW_BLOCK // 2):
            weights[start + 5:start + 5 + _DRAW_BLOCK // 2] = 0.0
        weights[0] = 1.0
        return weights / weights.sum()
    if pattern == "denormals":
        bits = rng.integers(1, 2 ** 23, n).astype(np.uint32)
        weights = bits.view(np.float32)
        weights[rng.random(n) < 0.3] = 0.0
        weights[-1] = np.float32(2.0 ** -140)
        return weights
    # 1.0 and then terms below half an ulp of 1: the sequential chain
    # stays at 1.0 until the final 1.0, while the blocked sums grow by
    # about n * 2**-54.
    weights = (rng.uniform(0.5, 1.5, n) * 2.0 ** -54).astype(np.float32)
    weights[0] = weights[-1] = 1.0
    return weights


@pytest.mark.parametrize("pattern", ["zero runs", "denormals", "one then tiny"])
@pytest.mark.parametrize(
    "n", [1, _DRAW_BLOCK - 1, _DRAW_BLOCK, _DRAW_BLOCK + 1, 20_000])
def test_d2_pick_is_the_normalised_searchsorted(n, pattern, monkeypatch):
    """The bracketed search and its exact fallback pick what the plain
    float64 chain picks: random uniforms mostly clear the rounding bound,
    and uniforms at each normalised step and its neighbours force the
    fallback."""
    weights = _draw_weights(n, pattern)
    cdf = np.cumsum(weights, dtype=np.float64)
    normalised = cdf / cdf[-1]
    steps = np.unique(normalised)
    rng = np.random.default_rng(n + 1)
    if len(steps) > 4 * _DRAW_BLOCK:
        # Every step of the first two blocks and the last one, and a
        # sample of the rest, keeps the test to a second.
        steps = np.unique(np.concatenate([
            steps[:2 * _DRAW_BLOCK], steps[-_DRAW_BLOCK:],
            rng.choice(steps, 1_000)]))
    forced = np.concatenate([
        steps, np.nextafter(steps, 0.0), np.nextafter(steps, 1.0), [0.0]])
    fallbacks = []

    def spy(cdf, u):
        fallbacks.append(u)
        return _first_above(cdf, u)

    monkeypatch.setattr(_KMEANS, "_first_above", spy)
    wide, scratch = np.full((2, n), np.nan)
    uniforms = np.concatenate([rng.random(200),
                               forced[(forced >= 0) & (forced < 1)]])
    for u in uniforms:
        want = int(normalised.searchsorted(u, side="right"))
        assert _d2_pick(weights, float(u), wide, scratch) == want, u
    # Both branches ran: the bracket decided some uniforms, the exact
    # chain the others.
    assert 0 < len(fallbacks) < len(uniforms)


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
        # The same arithmetic into caller-owned buffers, as _nearest runs it.
        out, scratch = np.full((2, n, k), np.nan, dtype=np.float32)
        buffered = _squared_distances(points, centroids, out, scratch)
        assert buffered is out
        assert np.array_equal(buffered, want)


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
        points, k, lambda rows, out, scratch: _squared_distances(
            rows, centroids, out, scratch)
    )
    want_nearest, want_distance, want_inertia = _unblocked(points, centroids)
    assert nearest.dtype == np.int64
    assert np.array_equal(nearest, want_nearest)
    assert nearest_distance.dtype == want_distance.dtype
    assert np.array_equal(nearest_distance, want_distance)
    assert float(nearest_distance.sum()) == want_inertia


@pytest.mark.parametrize("n, blocks", [(_BLOCK_ROWS - 1, 1),
                                       (2 * _BLOCK_ROWS + 3, 2)])
def test_nearest_buffers_are_per_call_and_never_returned(n, blocks):
    rng = np.random.default_rng(3)
    points = rng.standard_normal((n, 4)).astype(np.float32)
    centroids = rng.standard_normal((16, 4)).astype(np.float32)
    calls = []

    def distances(rows, out, scratch):
        calls[-1].append((out, scratch))
        return _squared_distances(rows, centroids, out, scratch)

    results = []
    for _ in range(2):
        calls.append([])
        results.append(_nearest(points, 16, distances))
    first_copy = [a.copy() for a in results[0]]
    first, second = calls
    assert len(first) == blocks
    # One pair of buffers serves every block of a call ...
    assert np.shares_memory(first[0][0], first[-1][0])
    assert np.shares_memory(first[0][1], first[-1][1])
    # ... and each call has its own.
    assert not np.shares_memory(first[0][0], second[0][0])
    assert not np.shares_memory(first[0][1], second[0][1])
    buffers = [b for pair in first + second for b in pair]
    returned = list(results[0]) + list(results[1])
    for array in returned:
        assert not any(np.shares_memory(array, b) for b in buffers)
    for a in results[0]:
        assert not any(np.shares_memory(a, b) for b in results[1])
    # The second call left the first call's results as they were.
    for got, want in zip(results[0], first_copy):
        assert np.array_equal(got, want)


def test_successive_kmeans_results_are_independent():
    points = np.random.default_rng(8).standard_normal((3000, 4))
    a = kmeans(points.astype(np.float32), 8, seed=1)
    a_centroids, a_assignments = a.centroids.copy(), a.assignments.copy()
    b = kmeans(points.astype(np.float32), 8, seed=1)
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.assignments, b.assignments)
    assert not np.shares_memory(a.centroids, b.centroids)
    assert not np.shares_memory(a.assignments, b.assignments)
    # Reading b's lazy final pass left a's arrays as they were.
    assert np.array_equal(a.centroids, a_centroids)
    assert np.array_equal(a.assignments, a_assignments)


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
    "test reads inf <= tolerance * inf.  Fixing it changes the e5, e6 "
    "and E14 tables and the benchmark's reference digests.",
)
def test_lloyd_runs_more_than_one_iteration():
    points = np.random.default_rng(0).standard_normal((5000, 8))
    result = kmeans(points.astype(np.float32), 32, max_iterations=25)
    assert result.n_iterations > 1
