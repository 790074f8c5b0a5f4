"""Unit tests for the IVF-PQ index and recall metrics."""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest

from repro.fanns.ivf import SearchStats, build_ivfpq
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
    assert index.shape.n_vectors == _DS.n
    all_ids = np.concatenate(index.list_ids)
    assert len(np.unique(all_ids)) == _DS.n
    assert index.nlist == 32
    assert index.shape.code_nbytes == 4


def test_search_shapes_and_id_validity():
    index = _index()
    ids = index.search(_DS.queries, k=10, nprobe=8)
    assert ids.shape == (40, 10)
    valid = ids[ids >= 0]
    assert valid.max() < _DS.n


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


def test_residual_beats_plain_encoding():
    res = _index(residual=True)
    plain = _index(residual=False)
    r_res = recall_at_k(res.search(_DS.queries, 10, 8), _DS.ground_truth)
    r_plain = recall_at_k(plain.search(_DS.queries, 10, 8), _DS.ground_truth)
    assert r_res >= r_plain - 0.02  # residual never meaningfully worse


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
        build_ivfpq(_DS.base, nlist=0, m=4)
    with pytest.raises(ValueError):
        build_ivfpq(_DS.base, nlist=10_000_000, m=4)
    with pytest.raises(ValueError):
        build_ivfpq(np.zeros(8, dtype=np.float32), nlist=1, m=4)


def test_train_sample_reduces_training_but_still_works():
    index = _index(train_sample=500)
    ids = index.search(_DS.queries, 10, nprobe=16)
    assert recall_at_k(ids, _DS.ground_truth) > 0.3


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
        if not index.residual:
            table = index.pq.adc_table(query)
            stats.lut_entries += table.size
        ids, dists = [], []
        for list_id in probe:
            codes = index.list_codes[list_id]
            if len(codes) == 0:
                continue
            if index.residual:
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
def _cached_index(residual):
    return _index(residual=residual)


def _without_lists(index, empty):
    """``index`` with the lists in ``empty`` emptied."""
    list_ids, list_codes = list(index.list_ids), list(index.list_codes)
    for list_id in empty:
        list_ids[list_id] = list_ids[list_id][:0]
        list_codes[list_id] = list_codes[list_id][:0]
    return dataclasses.replace(
        index, list_ids=tuple(list_ids), list_codes=tuple(list_codes)
    )


@pytest.mark.parametrize("residual", [True, False])
@pytest.mark.parametrize("nprobe", [1, 32])
@pytest.mark.parametrize("k", [10, 500])
def test_search_matches_per_list_reference(residual, nprobe, k):
    ids = _assert_matches_reference(
        _cached_index(residual), _DS.queries, k, nprobe
    )
    if (k, nprobe) == (500, 1):
        # No list holds 500 of the 3000 vectors: -1 pads every row.
        assert (ids[:, -1] == -1).all()


@pytest.mark.parametrize("residual", [True, False])
def test_search_matches_reference_with_empty_lists(residual):
    index = _without_lists(_cached_index(residual), range(0, 32, 2))
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
