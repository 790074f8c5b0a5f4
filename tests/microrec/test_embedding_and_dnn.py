"""Unit tests for embedding tables and the MLP head."""

import math
import tracemalloc

import numpy as np
import pytest

from repro.core.clocking import FABRIC_300MHZ
from repro.microrec.cpu_baseline import CpuRecommender
from repro.microrec.dnn import Mlp, fpga_mlp_latency_s
from repro.microrec.embedding import EmbeddingTables, embedding_rows
from repro.workloads.traces import (
    RecModelSpec,
    lookup_trace,
    production_like_model,
)


def _spec():
    return RecModelSpec(table_rows=(10, 100, 1000), embedding_dim=4,
                        mlp_layers=(32, 16))


def test_tables_shapes_and_bytes():
    spec = _spec()
    tables = EmbeddingTables(spec, seed=1)
    assert tables.n_tables == 3
    assert tables.rows(2, np.arange(1000)).shape == (1000, 4)
    assert tables.rows(2, np.arange(1000)).dtype == np.float32
    assert tables.table_nbytes(0) == 10 * 4 * 4
    assert tables.total_nbytes == (10 + 100 + 1000) * 16


def test_row_is_the_same_in_any_batch_or_position():
    spec = RecModelSpec(table_rows=(7, 50, 3), embedding_dim=5,
                        mlp_layers=(8,))
    tables = EmbeddingTables(spec, seed=7)
    want = tables.rows(1, [17])[0]
    assert np.array_equal(want, embedding_rows(7, 1, [17], 5)[0])
    a = tables.lookup(np.array([[0, 17, 2]]))
    b = tables.lookup(np.array([[6, 3, 0], [1, 4, 1], [5, 17, 0]]))
    assert np.array_equal(a[0, 5:10], want)
    assert np.array_equal(b[2, 5:10], want)
    assert np.array_equal(tables.rows(1, [3, 9, 17, 17])[2:], [want, want])
    # Every row of a table, drawn at once, matches the one-by-one draw.
    whole = tables.rows(1, np.arange(50))
    for r in (0, 17, 49):
        assert np.array_equal(whole[r], tables.rows(1, [r])[0])


def test_rows_differ_across_seeds_and_tables():
    ids = np.arange(20)
    base = embedding_rows(4, 0, ids, 16)
    assert not np.any(np.all(base == embedding_rows(5, 0, ids, 16), axis=1))
    assert not np.any(np.all(base == embedding_rows(4, 1, ids, 16), axis=1))
    # Distinct rows of one table differ too.
    assert len({row.tobytes() for row in base}) == len(ids)


def test_rows_are_standard_normal():
    values = embedding_rows(3, np.arange(4)[:, None], np.arange(1563),
                            16).ravel()
    assert values.size > 100_000
    assert np.isfinite(values).all()
    assert abs(values.mean()) < 0.01
    assert abs(values.std() - 1.0) < 0.01
    # Odd widths keep the pairs' first columns: same values, truncated.
    assert np.array_equal(embedding_rows(3, 2, [5], 7)[0],
                          embedding_rows(3, 2, [5], 8)[0, :7])


def test_full_scale_tables_allocate_under_one_mib():
    """The e7/e8 model describes 484 MiB of rows; building its tables
    and gathering a batch allocate almost none of it."""
    from repro.exec.experiments.contexts import _microrec_model

    spec = _microrec_model(smoke=False)
    trace = lookup_trace(spec, batch_size=8, seed=2)
    tracemalloc.start()
    try:
        tables = EmbeddingTables(spec, seed=21)
        rows = tables.lookup(trace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tables.total_nbytes > 400 * 2 ** 20
    assert rows.shape == (8, spec.concat_width)
    assert peak < 2 ** 20


def test_lookup_gathers_and_concatenates():
    spec = _spec()
    tables = EmbeddingTables(spec, seed=1)
    trace = np.array([[1, 2, 3], [0, 0, 0]])
    out = tables.lookup(trace)
    assert out.shape == (2, 12)
    assert np.array_equal(out[0, :4], tables.rows(0, [1])[0])
    assert np.array_equal(out[0, 4:8], tables.rows(1, [2])[0])
    assert np.array_equal(out[1, 8:], tables.rows(2, [0])[0])


def test_lookup_width_is_the_mlp_input_width():
    spec = RecModelSpec(table_rows=(10, 20, 30), embedding_dim=4)
    tables = EmbeddingTables(spec, seed=0)
    trace = lookup_trace(spec, batch_size=4, seed=1)
    assert tables.lookup(trace).shape[1] == spec.concat_width
    Mlp(spec.concat_width, spec.mlp_layers).forward(tables.lookup(trace))


def test_lookup_validation():
    tables = EmbeddingTables(_spec(), seed=1)
    with pytest.raises(ValueError):
        tables.lookup(np.zeros((2, 5), dtype=np.int64))
    with pytest.raises(IndexError):
        tables.lookup(np.array([[0, 0, 5000]]))
    with pytest.raises(IndexError):
        tables.lookup(np.array([[-1, 0, 0]]))
    with pytest.raises(IndexError):
        tables.rows(0, [10])
    with pytest.raises(ValueError):
        EmbeddingTables(_spec(), seed=-1)


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


def _eager_parameters(widths, seed):
    """The MLP draw as an eager constructor would make it."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        scale = np.sqrt(2.0 / fan_in)
        weights.append(
            (rng.standard_normal((fan_in, fan_out)) * scale).astype(
                np.float32
            )
        )
        biases.append((rng.standard_normal(fan_out) * 0.1).astype(np.float32))
    return weights, biases


def test_mlp_weights_drawn_on_first_forward_equal_eager_draw():
    mlp = Mlp(12, (32, 16), seed=3)
    assert mlp._params is None
    x = np.random.default_rng(0).random((5, 12), dtype=np.float32)
    out = mlp.forward(x)
    weights, biases = mlp.parameters()
    want_w, want_b = _eager_parameters(mlp.widths, 3)
    assert len(weights) == len(want_w) == 3
    for got, want in zip(weights + biases, want_w + want_b):
        assert got.dtype == np.float32
        assert np.array_equal(got, want)
    assert mlp.parameters()[0][0] is weights[0]  # drawn once
    h = x
    for i, (w, b) in enumerate(zip(want_w, want_b)):
        h = h @ w + b
        if i < 2:
            h = np.maximum(h, 0.0)
    assert np.array_equal(out, h[:, 0])


def _e16_fleetrec_model():
    spec = production_like_model(n_tables=47, max_rows=500_000, seed=51)
    return RecModelSpec(table_rows=spec.table_rows,
                        embedding_dim=spec.embedding_dim,
                        mlp_layers=(4096, 2048, 1024))


@pytest.mark.parametrize("which", ["e7", "e16"])
def test_pricing_reads_widths_and_matches_the_eager_weights(which):
    """n_macs, weight_nbytes, the FPGA latency and the CPU's GEMV time
    equal what the drawn weights give, and pricing draws none."""
    from repro.exec.experiments.contexts import _microrec_model

    spec = (
        _microrec_model(smoke=False) if which == "e7"
        else _e16_fleetrec_model()
    )
    cpu = CpuRecommender(spec, seed=6)
    mlp = cpu.mlp
    macs, nbytes = mlp.n_macs, mlp.weight_nbytes
    fpga_s = fpga_mlp_latency_s(mlp)
    cpu_dnn_s = cpu._dnn_time_s(1, parallel=False)
    assert mlp._params is None
    weights, _ = _eager_parameters(mlp.widths, 6)
    assert macs == sum(w.size for w in weights) == spec.mlp_flops()
    assert nbytes == sum(w.nbytes for w in weights)
    cycles = sum(math.ceil(w.size / 2048) + 32 for w in weights)
    assert fpga_s == FABRIC_300MHZ.cycles_to_seconds(cycles)
    assert cpu_dnn_s == sum(
        cpu.cpu.gemv_time_s(w.shape[0], w.shape[1], parallel=False)
        for w in weights
    )
