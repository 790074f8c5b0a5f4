"""Unit tests for relational workload generators."""

import numpy as np
import pytest

from repro.workloads.tables import grouped_table, orders_table, uniform_table


def test_uniform_table_shapes():
    t = uniform_table(1000, n_payload_cols=3, key_max=1_000_000, seed=11)
    assert set(t) == {"key", "val0", "val1", "val2"}
    assert all(col.shape == (1000,) for col in t.values())
    assert t["key"].dtype == np.int64


def test_uniform_table_selectivity_dial():
    t = uniform_table(100_000, key_max=1_000_000, seed=2, n_payload_cols=4)
    for s in (0.01, 0.1, 0.5):
        frac = (t["key"] < s * 1_000_000).mean()
        assert frac == pytest.approx(s, abs=0.01)


def test_orders_table_columns():
    t = orders_table(5000, n_customers=100, seed=13)
    assert t["customer_id"].max() < 100
    assert (t["amount"] >= 0).all()
    assert (t["quantity"] >= 1).all()
    assert len(np.unique(t["order_id"])) == 5000


def test_determinism():
    a = uniform_table(100, seed=7, n_payload_cols=4, key_max=1_000_000)
    b = uniform_table(100, seed=7, n_payload_cols=4, key_max=1_000_000)
    assert np.array_equal(a["key"], b["key"])


def test_invalid_parameters():
    with pytest.raises(ValueError):
        uniform_table(-1, n_payload_cols=4, key_max=1_000_000, seed=11)
    with pytest.raises(ValueError):
        orders_table(10, n_customers=0, seed=13)
    with pytest.raises(ValueError):
        grouped_table(10, n_groups=0, seed=17)


def test_empty_tables_allowed():
    t = uniform_table(0, n_payload_cols=4, key_max=1_000_000, seed=11)
    assert t["key"].shape == (0,)
