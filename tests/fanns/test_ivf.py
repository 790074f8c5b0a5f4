"""Unit tests for the IVF-PQ index and recall metrics."""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest

from repro.fanns.ivf import SearchStats, build_ivfpq
from repro.fanns.kmeans import _squared_distances, kmeans_pp_init
from repro.fanns.recall import recall_at_k
from repro.workloads.vectors import clustered_dataset

_DS = clustered_dataset(
    n=3000, dim=16, n_queries=40, gt_k=10, n_clusters=24,
    cluster_std=0.08, seed=3,
)


def _index(**kwargs):
    params = dict(nlist=32, m=4, ksub=64, seed=0)
    params.update(kwargs)
    return build_ivfpq(_DS.base, **params)


def test_index_partitions_all_vectors():
    index = _index()
    assert index.shape.n_vectors == len(_DS.base)
    all_ids = np.concatenate(index.list_ids)
    assert len(np.unique(all_ids)) == len(_DS.base)
    assert index.nlist == 32
    assert index.shape.code_nbytes == 4


def test_search_shapes_and_id_validity():
    index = _index()
    ids = index.search(_DS.queries, k=10, nprobe=8)
    assert ids.shape == (40, 10)
    valid = ids[ids >= 0]
    assert valid.max() < len(_DS.base)


def test_recall_increases_with_nprobe():
    index = _index()
    recalls = []
    for nprobe in (1, 4, 16, 32):
        ids = index.search(_DS.queries, k=10, nprobe=nprobe)
        recalls.append(recall_at_k(ids, _DS.ground_truth))
    assert recalls == sorted(recalls)
    assert recalls[-1] > recalls[0]
    assert recalls[-1] > 0.6  # probing everything: limited only by PQ error


def test_full_probe_high_recall_at_1():
    """With nprobe=nlist, recall@1 is limited only by quantization."""
    index = _index(m=8, ksub=128)
    ids = index.search(_DS.queries, k=1, nprobe=32)
    assert recall_at_k(ids, _DS.ground_truth, k=1) > 0.75


def test_stats_count_work():
    index = _index()
    stats = SearchStats()
    index.search(_DS.queries[:5], k=10, nprobe=4, stats=stats)
    assert stats.n_queries == 5
    assert stats.centroid_distances == 5 * 32
    assert stats.codes_scanned > 0
    assert stats.code_bytes_scanned == stats.codes_scanned * 4
    # Residual mode: one LUT per probed list.
    assert stats.lut_entries == 5 * 4 * 64 * 4  # q * nprobe * ksub * m? see below


def test_stats_scale_with_nprobe():
    index = _index()
    small, large = SearchStats(), SearchStats()
    index.search(_DS.queries[:5], 10, nprobe=2, stats=small)
    index.search(_DS.queries[:5], 10, nprobe=16, stats=large)
    assert large.codes_scanned > small.codes_scanned
    assert large.lut_entries > small.lut_entries


def test_expected_candidates_monotone():
    shape = _index().shape
    assert shape.expected_candidates(1) <= shape.expected_candidates(8)
    assert shape.expected_candidates(0) == 0.0


def test_search_validation():
    index = _index()
    with pytest.raises(ValueError):
        index.search(_DS.queries, k=0, nprobe=1)
    with pytest.raises(ValueError):
        index.search(_DS.queries, k=1, nprobe=0)
    with pytest.raises(ValueError):
        index.search(_DS.queries, k=1, nprobe=33)
    with pytest.raises(ValueError):
        index.search(_DS.queries[:, :8], k=1, nprobe=1)


def test_build_validation():
    with pytest.raises(ValueError):
        build_ivfpq(_DS.base, nlist=0, m=4, ksub=256, seed=0)
    with pytest.raises(ValueError):
        build_ivfpq(_DS.base, nlist=10_000_000, m=4, ksub=256, seed=0)
    with pytest.raises(ValueError):
        build_ivfpq(np.zeros(8, dtype=np.float32), nlist=1, m=4, ksub=256,
                    seed=0)


def test_recall_metric_validation():
    with pytest.raises(ValueError):
        recall_at_k(np.zeros((3, 5), dtype=np.int64),
                    np.zeros((4, 5), dtype=np.int64))
    with pytest.raises(ValueError):
        recall_at_k(np.zeros((3, 5), dtype=np.int64),
                    np.zeros((3, 5), dtype=np.int64), k=6)


def test_recall_metric_values():
    gt = np.array([[0, 1, 2]])
    assert recall_at_k(np.array([[0, 1, 2]]), gt) == 1.0
    assert recall_at_k(np.array([[2, 1, 0]]), gt) == 1.0  # set semantics
    assert recall_at_k(np.array([[0, 9, 8]]), gt) == pytest.approx(1 / 3)
    assert recall_at_k(np.array([[-1, -1, -1]]), gt) == 0.0


# -- the batched search against a plain per-list reference ------------------


def _reference_search(index, queries, k, nprobe):
    """One ADC table and one gather per probed list, as IVF-PQ is
    usually written; ``search`` must return its ids and counters."""
    stats = SearchStats(n_queries=len(queries))
    out = np.full((len(queries), k), -1, dtype=np.int64)
    c_sq = (index.centroids ** 2).sum(axis=1)
    for qi, query in enumerate(np.asarray(queries, dtype=np.float32)):
        coarse = c_sq - 2.0 * (index.centroids @ query)
        probe = np.argpartition(coarse, nprobe - 1)[:nprobe]
        stats.centroid_distances += index.nlist
        ids, dists = [], []
        for list_id in probe:
            codes = index.list_codes[list_id]
            if len(codes) == 0:
                continue
            table = index.pq.adc_table(query - index.centroids[list_id])
            stats.lut_entries += table.size
            ids.append(index.list_ids[list_id])
            dists.append(index.pq.adc_distances(table, codes))
            stats.codes_scanned += len(codes)
            stats.code_bytes_scanned += codes.nbytes
        if ids:
            ids, dists = np.concatenate(ids), np.concatenate(dists)
            order = np.lexsort((ids, dists))[:k]
            out[qi, :len(order)] = ids[order]
    return out, stats


def _assert_matches_reference(index, queries, k, nprobe):
    stats = SearchStats()
    ids = index.search(queries, k, nprobe, stats=stats)
    want_ids, want_stats = _reference_search(index, queries, k, nprobe)
    assert np.array_equal(ids, want_ids)
    assert stats == want_stats
    return ids


@lru_cache(maxsize=None)
def _cached_index():
    return _index()


def _without_lists(index, empty):
    """``index`` with the lists in ``empty`` emptied."""
    list_ids, list_codes = list(index.list_ids), list(index.list_codes)
    for list_id in empty:
        list_ids[list_id] = list_ids[list_id][:0]
        list_codes[list_id] = list_codes[list_id][:0]
    return dataclasses.replace(
        index, list_ids=tuple(list_ids), list_codes=tuple(list_codes)
    )


@pytest.mark.parametrize("nprobe", [1, 32])
@pytest.mark.parametrize("k", [10, 500])
def test_search_matches_per_list_reference(nprobe, k):
    ids = _assert_matches_reference(_cached_index(), _DS.queries, k, nprobe)
    if (k, nprobe) == (500, 1):
        # No list holds 500 of the 3000 vectors: -1 pads every row.
        assert (ids[:, -1] == -1).all()


def test_search_matches_reference_with_empty_lists():
    index = _without_lists(_cached_index(), range(0, 32, 2))
    for nprobe in (1, 4, 32):
        for k in (10, 500):
            _assert_matches_reference(index, _DS.queries, k, nprobe)
    # Some query probes only an emptied list at nprobe=1.
    ids = index.search(_DS.queries, 10, 1)
    assert (ids == -1).all(axis=1).any()


def test_search_matches_reference_under_exact_ties():
    from .test_distributed import _duplicate_setup

    index, queries = _duplicate_setup()
    for nprobe in (1, 8, 16):
        for k in (10, 40):
            _assert_matches_reference(index, queries, k, nprobe)


# -- the row-blocked build against the unblocked one it replaced -------------


def _unblocked_kmeans(points, k, max_iterations=25, tolerance=1e-4, seed=0):
    """Lloyd's loop as written before row blocking: one full distance
    matrix per iteration and ``np.add.at`` sums; only the centroids."""
    points = np.ascontiguousarray(points, dtype=np.float32)
    rng = np.random.default_rng(seed)
    centroids = kmeans_pp_init(points, k, rng)
    previous_inertia = np.inf
    for _ in range(1, max_iterations + 1):
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
    return centroids


def _unblocked_encode(codebooks, vectors):
    m, _, dsub = codebooks.shape
    codes = np.empty((vectors.shape[0], m), dtype=np.uint8)
    for sub in range(m):
        chunk = vectors[:, sub * dsub:(sub + 1) * dsub]
        cb = codebooks[sub]
        d = (
            (chunk ** 2).sum(axis=1)[:, None]
            - 2.0 * chunk @ cb.T
            + (cb ** 2).sum(axis=1)[None, :]
        )
        codes[:, sub] = d.argmin(axis=1)
    return codes


def _unblocked_build(base, nlist, m, ksub, seed):
    """``(centroids, codebooks, list ids, list codes)`` as ``build_ivfpq``
    built them before row blocking."""
    base = np.ascontiguousarray(base, dtype=np.float32)
    n = base.shape[0]
    centroids = _unblocked_kmeans(base, nlist, seed=seed)
    c_sq = (centroids ** 2).sum(axis=1)
    assign = np.empty(n, dtype=np.int64)
    block = 8192
    for start in range(0, n, block):
        chunk = base[start:start + block]
        d = c_sq[None, :] - 2.0 * (chunk @ centroids.T)
        assign[start:start + len(chunk)] = d.argmin(axis=1)
    training = base - centroids[assign]
    dsub = training.shape[1] // m
    codebooks = np.empty((m, ksub, dsub), dtype=np.float32)
    for sub in range(m):
        chunk = training[:, sub * dsub:(sub + 1) * dsub]
        codebooks[sub] = _unblocked_kmeans(
            chunk, ksub, max_iterations=15, seed=seed + sub
        )
    codes = _unblocked_encode(codebooks, training)
    list_ids, list_codes = [], []
    for list_id in range(nlist):
        members = np.flatnonzero(assign == list_id)
        list_ids.append(members.astype(np.int64))
        list_codes.append(codes[members])
    return centroids, codebooks, list_ids, list_codes


@pytest.mark.parametrize("m", [4, 16])
def test_build_matches_unblocked_build(m):
    # 3000 rows: two row blocks, the second holding the remainder.
    index = build_ivfpq(_DS.base, nlist=32, m=m, ksub=64, seed=5)
    centroids, codebooks, list_ids, list_codes = _unblocked_build(
        _DS.base, nlist=32, m=m, ksub=64, seed=5
    )
    assert np.array_equal(index.centroids, centroids)
    assert np.array_equal(index.pq.codebooks, codebooks)
    assert len(index.list_ids) == len(list_ids) == 32
    for got, want in zip(index.list_ids, list_ids):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for got, want in zip(index.list_codes, list_codes):
        assert got.dtype == want.dtype and np.array_equal(got, want)
