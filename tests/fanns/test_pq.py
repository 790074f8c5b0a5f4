"""Unit tests for product quantization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fanns.distributed import DistributedFanns
from repro.fanns.ivf import build_ivfpq
from repro.fanns.pq import ProductQuantizer, train_pq
from repro.workloads.vectors import clustered_dataset


def _vectors(n=600, dim=16, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, dim), dtype=np.float32)


def test_shapes_and_properties():
    pq = train_pq(_vectors(), m=4, ksub=32)
    assert pq.m == 4
    assert pq.ksub == 32
    assert pq.dsub == 4
    assert pq.dim == 16
    assert pq.code_nbytes == 4


def test_encode_produces_valid_codes():
    pq = train_pq(_vectors(), m=4, ksub=16)
    codes = pq.encode(_vectors(seed=1))
    assert codes.shape == (600, 4)
    assert codes.dtype == np.uint8
    assert codes.max() < 16


def test_encode_is_the_nearest_code_under_one_distance_matrix():
    """Under 2,048 rows the encoder assigns one block, so its codes are
    the argmin of ``|p|^2 - 2 p.c + |c|^2`` over the whole matrix."""
    pq = train_pq(_vectors(), m=4, ksub=16)
    vectors = _vectors(n=1500, seed=2)
    want = np.empty((1500, pq.m), dtype=np.uint8)
    for sub in range(pq.m):
        chunk = vectors[:, sub * pq.dsub:(sub + 1) * pq.dsub]
        cb = pq.codebooks[sub]
        matrix = ((chunk ** 2).sum(axis=1)[:, None] - 2.0 * chunk @ cb.T
                  + (cb ** 2).sum(axis=1)[None, :])
        want[:, sub] = matrix.argmin(axis=1)
    assert np.array_equal(pq.encode(vectors), want)


def test_successive_encodes_are_independent():
    pq = train_pq(_vectors(), m=4, ksub=16)
    first = pq.encode(_vectors(n=2500, seed=1))
    kept = first.copy()
    second = pq.encode(_vectors(n=2500, seed=2))
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, kept)
    assert np.array_equal(second, pq.encode(_vectors(n=2500, seed=2)))


def test_roundtrip_error_bounded():
    vectors = _vectors()
    pq = train_pq(vectors, m=8, ksub=64)
    recon = pq.decode(pq.encode(vectors))
    err = ((vectors - recon) ** 2).sum(axis=1).mean()
    baseline = ((vectors - vectors.mean(axis=0)) ** 2).sum(axis=1).mean()
    # Quantization should explain most of the variance.
    assert err < baseline / 2


def test_more_subspaces_reduce_error():
    vectors = _vectors(seed=2)
    coarse = train_pq(vectors, m=2, ksub=32, seed=1)
    fine = train_pq(vectors, m=8, ksub=32, seed=1)
    err_coarse = ((vectors - coarse.decode(coarse.encode(vectors))) ** 2).sum()
    err_fine = ((vectors - fine.decode(fine.encode(vectors))) ** 2).sum()
    assert err_fine < err_coarse


def test_adc_matches_decoded_distance():
    """ADC distance == exact distance to the *reconstructed* vector."""
    vectors = _vectors(seed=3)
    pq = train_pq(vectors, m=4, ksub=32)
    codes = pq.encode(vectors[:50])
    recon = pq.decode(codes)
    query = vectors[100]
    table = pq.adc_table(query)
    adc = pq.adc_distances(table, codes)
    exact = ((recon - query) ** 2).sum(axis=1)
    assert np.allclose(adc, exact, rtol=1e-4, atol=1e-4)


def _adc_reference(pq, query):
    """The per-subspace ADC loop that ``adc_table`` must equal exactly,
    one query row at a time over any leading batch shape."""
    query = np.ascontiguousarray(query, dtype=np.float32)
    rows = query.reshape(-1, pq.dim)
    table = np.empty((len(rows), pq.m, pq.ksub), dtype=np.float32)
    for row, vector in enumerate(rows):
        for sub in range(pq.m):
            chunk = vector[sub * pq.dsub:(sub + 1) * pq.dsub]
            table[row, sub] = ((pq.codebooks[sub] - chunk) ** 2).sum(axis=1)
    return table.reshape(query.shape[:-1] + (pq.m, pq.ksub))


@pytest.mark.parametrize("dsub", [1, 2, 3, 4, 8, 16])
@pytest.mark.parametrize("m", [1, 4, 16])
def test_adc_table_bit_identical_to_per_subspace_loop(m, dsub):
    rng = np.random.default_rng(100 * m + dsub)
    for ksub, dtype in ((1, np.float32), (17, np.float32), (255, np.float32),
                        (17, np.float64)):
        codebooks = rng.standard_normal((m, ksub, dsub)).astype(dtype)
        pq = ProductQuantizer(codebooks=codebooks)
        for lead in ((), (3,), (2, 5)):
            query = rng.standard_normal(lead + (m * dsub,)).astype(np.float32)
            table = pq.adc_table(query)
            assert table.dtype == np.float32
            assert table.shape == lead + (m, ksub)
            assert np.array_equal(table, _adc_reference(pq, query))


@pytest.mark.parametrize("m", [2, 8, 16])
def test_search_ids_unchanged_against_reference_adc(m, monkeypatch):
    data = clustered_dataset(
        n=1500, dim=16, n_queries=12, gt_k=10, n_clusters=12,
        cluster_std=0.2, seed=5,
    )
    index = build_ivfpq(data.base, nlist=12, m=m, ksub=32, seed=5)
    dist = DistributedFanns(index, n_nodes=3)

    def search():
        return (
            index.search(data.queries, 10, 4),
            dist.search(data.queries, 10, 4).ids,
        )

    fast = search()
    monkeypatch.setattr(ProductQuantizer, "adc_table", _adc_reference)
    reference = search()
    for got, want in zip(fast, reference):
        assert np.array_equal(got, want)


def test_adc_empty_codes():
    pq = train_pq(_vectors(), m=4, ksub=16)
    table = pq.adc_table(_vectors()[0])
    assert pq.adc_distances(table, np.empty((0, 4), dtype=np.uint8)).shape == (0,)


def test_dimension_validation():
    pq = train_pq(_vectors(), m=4, ksub=16)
    with pytest.raises(ValueError):
        pq.encode(np.zeros((3, 10), dtype=np.float32))
    with pytest.raises(ValueError):
        pq.adc_table(np.zeros(10, dtype=np.float32))
    with pytest.raises(ValueError):
        pq.decode(np.zeros((3, 7), dtype=np.uint8))


def test_training_validation():
    with pytest.raises(ValueError):
        train_pq(_vectors(), m=3)  # 16 % 3 != 0
    with pytest.raises(ValueError):
        train_pq(_vectors(), m=4, ksub=300)
    with pytest.raises(ValueError):
        train_pq(_vectors(n=10), m=4, ksub=64)  # too few samples
    with pytest.raises(ValueError):
        train_pq(np.zeros(16, dtype=np.float32), m=4)


@settings(max_examples=10, deadline=None)
@given(
    m=st.sampled_from([1, 2, 4, 8]),
    ksub=st.sampled_from([4, 16, 64]),
)
def test_property_adc_is_nonnegative_and_finite(m, ksub):
    vectors = _vectors(n=200, dim=8, seed=9)
    pq = train_pq(vectors, m=m, ksub=ksub, max_iterations=5)
    codes = pq.encode(vectors)
    table = pq.adc_table(vectors[0])
    d = pq.adc_distances(table, codes)
    assert (d >= 0).all()
    assert np.isfinite(d).all()
