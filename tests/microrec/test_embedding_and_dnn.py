"""Unit tests for embedding tables and the MLP head."""

import tracemalloc

import numpy as np
import pytest

from repro.microrec.dnn import Mlp, fpga_mlp_latency_s
from repro.microrec.embedding import _NORMAL_CHUNK, EmbeddingTables
from repro.workloads.traces import RecModelSpec, lookup_trace


def _spec():
    return RecModelSpec(table_rows=(10, 100, 1000), embedding_dim=4,
                        mlp_layers=(32, 16))


def test_tables_shapes_and_bytes():
    spec = _spec()
    tables = EmbeddingTables(spec, seed=1)
    assert len(tables.tables) == 3
    assert tables.tables[2].shape == (1000, 4)
    assert tables.table_nbytes(0) == 10 * 4 * 4
    assert tables.total_nbytes == (10 + 100 + 1000) * 16


def test_tables_equal_one_shot_draw():
    rows = (3, _NORMAL_CHUNK // 16 + 1, 2 * _NORMAL_CHUNK // 7, 5)
    spec = RecModelSpec(table_rows=rows, embedding_dim=16, mlp_layers=(8,))
    tables = EmbeddingTables(spec, seed=7)
    rng = np.random.default_rng(7)
    for n, table in zip(rows, tables.tables):
        want = rng.standard_normal((n, 16)).astype(np.float32)
        assert table.dtype == np.float32
        assert np.array_equal(table, want)


def test_tables_build_without_a_float64_copy():
    # One table of ~32 MB: the build may hold the table and little else.
    spec = RecModelSpec(table_rows=(500_009,), embedding_dim=16,
                        mlp_layers=(8,))
    tracemalloc.start()
    try:
        tables = EmbeddingTables(spec, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * tables.total_nbytes


def test_lookup_gathers_and_concatenates():
    spec = _spec()
    tables = EmbeddingTables(spec, seed=1)
    trace = np.array([[1, 2, 3], [0, 0, 0]])
    out = tables.lookup(trace)
    assert out.shape == (2, 12)
    assert np.array_equal(out[0, :4], tables.tables[0][1])
    assert np.array_equal(out[0, 4:8], tables.tables[1][2])
    assert np.array_equal(out[1, 8:], tables.tables[2][0])


def test_lookup_validation():
    tables = EmbeddingTables(_spec(), seed=1)
    with pytest.raises(ValueError):
        tables.lookup(np.zeros((2, 5), dtype=np.int64))
    with pytest.raises(IndexError):
        tables.lookup(np.array([[0, 0, 5000]]))
    with pytest.raises(IndexError):
        tables.lookup(np.array([[-1, 0, 0]]))


def test_lookup_deterministic_per_seed():
    a = EmbeddingTables(_spec(), seed=4)
    b = EmbeddingTables(_spec(), seed=4)
    trace = lookup_trace(_spec(), 8, seed=2)
    assert np.array_equal(a.lookup(trace), b.lookup(trace))


def test_mlp_shapes_and_determinism():
    mlp = Mlp(12, (32, 16), seed=0)
    x = np.random.default_rng(0).random((5, 12), dtype=np.float32)
    out = mlp.forward(x)
    assert out.shape == (5,)
    assert np.array_equal(out, Mlp(12, (32, 16), seed=0).forward(x))
    assert mlp.n_macs == 12 * 32 + 32 * 16 + 16
    assert mlp.weight_nbytes == mlp.n_macs * 4


def test_mlp_relu_nonlinearity():
    mlp = Mlp(4, (8,), seed=1)
    x = np.random.default_rng(1).random((10, 4), dtype=np.float32)
    # Doubling the input must not exactly double the output (ReLU kinks
    # + bias make the map non-linear in general); a linear map would.
    y1, y2 = mlp.forward(x), mlp.forward(2 * x)
    assert not np.allclose(y2, 2 * y1)


def test_mlp_validation():
    with pytest.raises(ValueError):
        Mlp(0, (4,))
    with pytest.raises(ValueError):
        Mlp(4, (0,))
    mlp = Mlp(4, (8,))
    with pytest.raises(ValueError):
        mlp.forward(np.zeros((2, 5), dtype=np.float32))


def test_fpga_mlp_latency_scales():
    mlp = Mlp(512, (1024, 512, 256), seed=0)
    fast = fpga_mlp_latency_s(mlp, n_dsp_macs=4096)
    slow = fpga_mlp_latency_s(mlp, n_dsp_macs=256)
    assert slow > fast
    # Microsecond scale for a production-sized head.
    assert 1e-7 < fast < 1e-4
    with pytest.raises(ValueError):
        fpga_mlp_latency_s(mlp, n_dsp_macs=0)
