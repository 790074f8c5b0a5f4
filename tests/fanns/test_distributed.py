"""Tests for sharded FANNS over an FPGA cluster."""

import numpy as np
import pytest

from repro.fanns.distributed import DistributedFanns
from repro.fanns.ivf import build_ivfpq
from repro.workloads.vectors import clustered_dataset

_DS = clustered_dataset(
    n=3000, dim=16, n_queries=20, gt_k=10, n_clusters=24,
    cluster_std=0.2, seed=11,
)
_INDEX = build_ivfpq(_DS.base, nlist=32, m=4, ksub=64, seed=11)


def test_sharded_result_equals_single_node():
    dist = DistributedFanns(_INDEX, n_nodes=4)
    out = dist.search(_DS.queries, k=10, nprobe=16)
    single = _INDEX.search(_DS.queries, 10, 16)
    assert np.array_equal(out.ids, single)


def test_sharded_search_matches_single_node_for_every_shard_count():
    """The distributed algorithm (per-node scans and top-k cuts, a
    root merge) returns exactly the single-node ids."""
    for n_nodes in (1, 2, 3, 4, 5):
        dist = DistributedFanns(_INDEX, n_nodes=n_nodes)
        for nprobe in (1, 4, 16, 32):
            sharded = dist.search(_DS.queries, k=10, nprobe=nprobe).ids
            single = _INDEX.search(_DS.queries, 10, nprobe)
            assert np.array_equal(sharded, single), (n_nodes, nprobe)


def test_shards_cover_all_lists():
    dist = DistributedFanns(_INDEX, n_nodes=5)
    counts = dist.shard_list_counts()
    assert sum(counts) == _INDEX.nlist
    assert max(counts) - min(counts) <= 1  # round-robin balance


def test_throughput_scales_with_nodes():
    single = DistributedFanns(_INDEX, n_nodes=1, list_scale=1000)
    quad = DistributedFanns(_INDEX, n_nodes=4, list_scale=1000)
    out1 = single.search(_DS.queries, 10, 32)
    out4 = quad.search(_DS.queries, 10, 32)
    assert out4.qps > 1.5 * out1.qps


def test_latency_includes_gather_and_merge():
    dist = DistributedFanns(_INDEX, n_nodes=8, list_scale=1000)
    out = dist.search(_DS.queries, 10, 32)
    assert out.gather_s > 0
    assert out.merge_s > 0
    assert out.query_latency_s == pytest.approx(
        out.node_latency_s + out.gather_s + out.merge_s
    )


def test_single_node_has_no_gather_cost():
    dist = DistributedFanns(_INDEX, n_nodes=1)
    out = dist.search(_DS.queries, 10, 8)
    assert out.gather_s == 0.0


def test_validation():
    with pytest.raises(ValueError):
        DistributedFanns(_INDEX, n_nodes=0)
    dist = DistributedFanns(_INDEX, n_nodes=2)
    with pytest.raises(ValueError):
        dist.search(_DS.queries, k=0, nprobe=4)
    with pytest.raises(ValueError):
        dist.search(_DS.queries, k=10, nprobe=_INDEX.nlist + 1)


# -- tie-breaking under exact distance ties ---------------------------------
#
# Duplicated base vectors share PQ codes, so their ADC distances tie
# *exactly*.  Before the (distance, id) total order, the single-node
# merge kept whichever tied candidate argpartition happened to leave in
# place while each shard's local cut could keep a different one — the
# two paths returned different ids for the same query.

def _duplicate_setup():
    rng = np.random.default_rng(3)
    unique = rng.normal(size=(60, 16)).astype(np.float32)
    base = np.repeat(unique, 40, axis=0)   # 40-way exact duplicates
    queries = unique[:10] + rng.normal(
        scale=0.01, size=(10, 16)
    ).astype(np.float32)
    index = build_ivfpq(base, nlist=16, m=4, ksub=16, seed=3)
    return index, queries


def test_sharded_search_matches_single_node_under_exact_ties():
    index, queries = _duplicate_setup()
    single = index.search(queries, 10, 8)
    for n_nodes in (1, 2, 3, 4, 5):
        dist = DistributedFanns(index, n_nodes=n_nodes)
        sharded = dist.search(queries, k=10, nprobe=8).ids
        assert np.array_equal(sharded, single), f"n_nodes={n_nodes}"


def test_tied_candidates_resolve_to_smallest_ids():
    """Among exact ties the lowest vector id wins, at every k cut."""
    index, queries = _duplicate_setup()
    wide = index.search(queries, 40, 8)
    narrow = index.search(queries, 10, 8)
    assert np.array_equal(wide[:, :10], narrow), \
        "the top-k cut must be a prefix of a wider search"
    # np.repeat lays out unique vector j's duplicates at contiguous ids
    # 40j..40j+39; ties resolve id-ascending, so whatever portion of
    # the nearest group is reported must be its smallest ids, in order.
    for qi in range(queries.shape[0]):
        j = int(wide[qi][0]) // 40
        group = [int(i) for i in wide[qi] if int(i) // 40 == j]
        assert group == list(range(40 * j, 40 * j + len(group)))
