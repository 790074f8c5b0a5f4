"""Unit tests for vector dataset generation and exact k-NN."""

import numpy as np
import pytest

from repro.workloads.vectors import brute_force_knn, clustered_dataset


def test_brute_force_agrees_with_naive():
    rng = np.random.default_rng(5)
    base = rng.random((200, 8), dtype=np.float32)
    queries = rng.random((10, 8), dtype=np.float32)
    got = brute_force_knn(base, queries, k=5, block=3)
    for qi in range(queries.shape[0]):
        dists = ((base - queries[qi]) ** 2).sum(axis=1)
        want = np.argsort(dists, kind="stable")[:5]
        assert set(got[qi]) == set(want)
        # Result must also be distance-ordered.
        got_d = dists[got[qi]]
        assert (np.diff(got_d) >= -1e-6).all()


def test_brute_force_k_validation():
    base = np.zeros((5, 2), dtype=np.float32)
    q = np.zeros((1, 2), dtype=np.float32)
    with pytest.raises(ValueError):
        brute_force_knn(base, q, k=0)
    with pytest.raises(ValueError):
        brute_force_knn(base, q, k=6)


def test_clustered_dataset_shapes_and_dtypes():
    ds = clustered_dataset(n=500, dim=16, n_queries=20, gt_k=5, seed=1,
                           n_clusters=64, cluster_std=0.15)
    assert ds.base.shape == (500, 16)
    assert ds.queries.shape == (20, 16)
    assert ds.ground_truth.shape == (20, 5)
    assert ds.base.dtype == np.float32


def test_clustered_dataset_deterministic():
    a = clustered_dataset(n=100, dim=4, n_queries=5, seed=9, gt_k=10,
                          n_clusters=64, cluster_std=0.15)
    b = clustered_dataset(n=100, dim=4, n_queries=5, seed=9, gt_k=10,
                          n_clusters=64, cluster_std=0.15)
    assert np.array_equal(a.base, b.base)
    assert np.array_equal(a.ground_truth, b.ground_truth)


def test_queries_have_close_neighbors():
    """Perturbed-base queries must find their source cluster."""
    ds = clustered_dataset(
        n=1000, dim=8, n_queries=50, gt_k=1, cluster_std=0.05, seed=2,
        n_clusters=64
    )
    nn = ds.ground_truth[:, 0]
    d_nn = ((ds.base[nn] - ds.queries) ** 2).sum(axis=1)
    rng = np.random.default_rng(0)
    random_ids = rng.integers(0, len(ds.base), size=len(ds.queries))
    d_rand = ((ds.base[random_ids] - ds.queries) ** 2).sum(axis=1)
    assert d_nn.mean() < d_rand.mean() / 5


def test_invalid_dataset_parameters():
    with pytest.raises(ValueError):
        clustered_dataset(n=0, dim=4, n_queries=1, gt_k=10, n_clusters=64,
                          cluster_std=0.15, seed=7)
    with pytest.raises(ValueError):
        clustered_dataset(n=10, dim=4, n_queries=1, n_clusters=0, gt_k=10,
                          cluster_std=0.15, seed=7)
