"""Vector-search workloads: clustered datasets, queries, ground truth.

FANNS evaluates on SIFT-style billion-scale vector collections, which we
cannot ship; the substitute is a clustered Gaussian generator that
preserves the property IVF indexes exploit — *clusterability* — with a
controllable spread, plus exact brute-force ground truth for recall
measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["VectorDataset", "brute_force_knn", "clustered_dataset"]


@dataclass(frozen=True)
class VectorDataset:
    """A generated dataset: base vectors, query vectors, ground truth.

    ``ground_truth[i]`` holds the ids of the true ``k`` nearest base
    vectors of ``queries[i]`` in ascending distance order.
    """

    base: np.ndarray          # (n, dim) float32
    queries: np.ndarray       # (q, dim) float32
    ground_truth: np.ndarray  # (q, k) int64


def brute_force_knn(
    base: np.ndarray, queries: np.ndarray, k: int, block: int = 1024
) -> np.ndarray:
    """Exact k-NN by blocked squared-L2 scan; returns (q, k) ids.

    Blocked over queries to bound the distance-matrix footprint.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > base.shape[0]:
        raise ValueError(f"k={k} exceeds dataset size {base.shape[0]}")
    base = np.ascontiguousarray(base, dtype=np.float32)
    queries = np.ascontiguousarray(queries, dtype=np.float32)
    base_sq = (base ** 2).sum(axis=1)
    out = np.empty((queries.shape[0], k), dtype=np.int64)
    for start in range(0, queries.shape[0], block):
        q = queries[start:start + block]
        # ||q - b||^2 = ||q||^2 - 2 q.b + ||b||^2 ; ||q||^2 constant per row.
        dists = base_sq[None, :] - 2.0 * (q @ base.T)
        idx = np.argpartition(dists, k - 1, axis=1)[:, :k]
        row_d = np.take_along_axis(dists, idx, axis=1)
        order = np.argsort(row_d, axis=1, kind="stable")
        out[start:start + q.shape[0]] = np.take_along_axis(idx, order, axis=1)
    return out


def clustered_dataset(
    n: int,
    dim: int,
    n_queries: int,
    gt_k: int,
    n_clusters: int,
    cluster_std: float,
    seed: int,
) -> VectorDataset:
    """Generate a clustered Gaussian dataset with exact ground truth.

    Cluster centers are uniform in the unit cube; base vectors are
    Gaussian around a random center; queries are perturbed base vectors
    (so every query has natural near neighbors, as in real embedding
    collections).
    """
    if n < 1 or dim < 1 or n_queries < 1:
        raise ValueError("n, dim and n_queries must all be >= 1")
    if n_clusters < 1:
        raise ValueError("need at least one cluster")
    rng = np.random.default_rng(seed)
    centers = rng.random((n_clusters, dim), dtype=np.float32)
    assignment = rng.integers(0, n_clusters, size=n)
    base = centers[assignment] + rng.normal(
        0.0, cluster_std, size=(n, dim)
    ).astype(np.float32)
    picks = rng.integers(0, n, size=n_queries)
    queries = base[picks] + rng.normal(
        0.0, cluster_std / 2, size=(n_queries, dim)
    ).astype(np.float32)
    gt = brute_force_knn(base, queries, gt_k)
    return VectorDataset(base=base, queries=queries, ground_truth=gt)
