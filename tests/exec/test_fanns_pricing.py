"""FANNS pricing from the index shape, and one search per e5 cell.

The engines' cost models read only :class:`~repro.fanns.ivf.IndexShape`,
so ``contexts.fanns_shape()`` must describe the index the experiments
train, price it exactly as the trained index does, and let the serving
backend skip the dataset and k-means altogether.
"""

import tracemalloc

import numpy as np
import pytest

from repro.exec.experiments import contexts
from repro.exec.experiments.fanns import _E5_NPROBES, e5_cell
from repro.exec.experiments.serving import build_backend
from repro.fanns import FannsAccelerator, IVFPQIndex, build_ivfpq
from repro.workloads import clustered_dataset

# Every nprobe e5, e6 (the generator's default candidates) and e24 price.
_PRICED_NPROBES = sorted(set(_E5_NPROBES) | {1, 2, 4, 8, 16, 32, 64})


@pytest.fixture
def smoke(monkeypatch):
    monkeypatch.setenv("REPRO_SMOKE", "1")


def test_fanns_shape_is_the_trained_index_shape(smoke):
    assert contexts.fanns_shape() == contexts.fanns_index().shape


def test_shape_price_equals_trained_index_price(smoke):
    index = contexts.fanns_index()
    sizes = np.array([len(ids) for ids in index.list_ids])
    from_shape = FannsAccelerator(
        contexts.fanns_shape(), list_scale=contexts.FANNS_LIST_SCALE
    )
    for nprobe in (n for n in _PRICED_NPROBES if n <= index.nlist):
        # The trained index's measured mean list length.
        measured = float(sizes.mean() * nprobe)
        assert index.shape.expected_candidates(nprobe) == measured
        assert from_shape.stage_times(nprobe) == FannsAccelerator(
            index.shape, list_scale=contexts.FANNS_LIST_SCALE
        ).stage_times(nprobe)


def test_fanns_backend_draws_no_dataset(monkeypatch):
    monkeypatch.delenv("REPRO_SMOKE", raising=False)
    before = contexts._fanns_dataset.cache_info()
    build_backend("fanns")  # the first call also imports the engines
    tracemalloc.start()
    try:
        backend = build_backend("fanns")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert backend.batch_service_ps(backend.max_batch) > 0
    assert contexts._fanns_dataset.cache_info() == before
    # The full-scale base vectors alone take 2.5 MB.
    assert peak < 100_000


def test_e5_cell_searches_once(monkeypatch):
    data = clustered_dataset(n=2_000, dim=16, n_queries=8, gt_k=10,
                             n_clusters=16, cluster_std=0.3, seed=5)
    index = build_ivfpq(data.base, nlist=16, m=4, ksub=16, seed=5)
    calls = []
    search = IVFPQIndex.search

    def counted(self, *args, **kwargs):
        calls.append(args)
        return search(self, *args, **kwargs)

    monkeypatch.setattr(IVFPQIndex, "search", counted)
    row = e5_cell({"index": index, "data": data}, {"nprobe": 4}, seed=13)
    assert len(calls) == 1
    assert row["nprobe"] == 4 and 0.0 <= row["recall"] <= 1.0
