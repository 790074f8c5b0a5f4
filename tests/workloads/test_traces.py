"""Unit tests for recommendation model specs and lookup traces."""

import numpy as np
import pytest

from repro.workloads.traces import (
    RecModelSpec,
    lookup_trace,
    production_like_model,
)


def test_spec_derived_quantities():
    spec = RecModelSpec(
        table_rows=(100, 1000), embedding_dim=8, mlp_layers=(64, 32)
    )
    assert spec.n_tables == 2
    assert spec.embedding_bytes == 32
    assert spec.table_bytes(1) == 1000 * 32
    assert spec.total_embedding_bytes == (100 + 1000) * 32
    assert spec.concat_width == 16


def test_spec_validation():
    with pytest.raises(ValueError):
        RecModelSpec(table_rows=(), embedding_dim=16)
    with pytest.raises(ValueError):
        RecModelSpec(table_rows=(0,), embedding_dim=16)
    with pytest.raises(ValueError):
        RecModelSpec(table_rows=(10,), embedding_dim=0)


def test_production_like_model_shape():
    spec = production_like_model(n_tables=47, max_rows=1_000_000, seed=23)
    assert spec.n_tables == 47
    rows = spec.table_rows
    assert min(rows) >= 10
    assert max(rows) <= 1_000_000
    # Log-uniform spread: both small and large tables present.
    assert min(rows) < 1000 < max(rows)
    # Sorted ascending by construction.
    assert list(rows) == sorted(rows)


def test_lookup_trace_shape_and_bounds():
    spec = production_like_model(n_tables=5, seed=1, max_rows=2_000_000)
    trace = lookup_trace(spec, batch_size=64, seed=2, skew=0.8)
    assert trace.shape == (64, 5)
    for t in range(5):
        assert trace[:, t].max() < spec.table_rows[t]
        assert trace[:, t].min() >= 0


def test_lookup_trace_deterministic():
    spec = production_like_model(n_tables=3, max_rows=2_000_000, seed=23)
    a = lookup_trace(spec, 32, seed=5, skew=0.8)
    b = lookup_trace(spec, 32, seed=5, skew=0.8)
    assert np.array_equal(a, b)


def test_trace_skew_hits_hot_rows():
    spec = RecModelSpec(table_rows=(10_000,), embedding_dim=16)
    skewed = lookup_trace(spec, 5000, skew=1.2, seed=3)
    uniform = lookup_trace(spec, 5000, skew=0.0, seed=3)
    assert np.median(skewed) < np.median(uniform)


def test_invalid_batch():
    spec = RecModelSpec(table_rows=(10,), embedding_dim=16)
    with pytest.raises(ValueError):
        lookup_trace(spec, -1, skew=0.8, seed=29)
