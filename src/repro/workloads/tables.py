"""Relational workload generator: tables with controllable selectivity.

Farview's offload experiments need tables where a predicate's
selectivity is a *dial*: ``lineitems``-style wide rows with a uniform
``key`` column lets ``key < s * max_key`` select exactly the fraction
``s``.  Columns come back as a dict of numpy arrays, matching the
columnar layout of :mod:`repro.relational`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["orders_table", "uniform_table", "grouped_table"]


def uniform_table(
    n_rows: int,
    n_payload_cols: int,
    key_max: int,
    seed: int,
) -> dict[str, np.ndarray]:
    """A table with a uniform int64 ``key`` plus float64 payload columns.

    ``key < selectivity * key_max`` selects ~``selectivity`` of rows.
    """
    if n_rows < 0:
        raise ValueError("n_rows must be >= 0")
    if n_payload_cols < 0:
        raise ValueError("n_payload_cols must be >= 0")
    rng = np.random.default_rng(seed)
    table: dict[str, np.ndarray] = {
        "key": rng.integers(0, key_max, size=n_rows, dtype=np.int64),
    }
    for i in range(n_payload_cols):
        table[f"val{i}"] = rng.random(n_rows)
    return table


def orders_table(n_rows: int, n_customers: int,
                 seed: int) -> dict[str, np.ndarray]:
    """An orders-style fact table for group-by and join workloads."""
    if n_rows < 0:
        raise ValueError("n_rows must be >= 0")
    if n_customers < 1:
        raise ValueError("need at least one customer")
    rng = np.random.default_rng(seed)
    return {
        "order_id": np.arange(n_rows, dtype=np.int64),
        "customer_id": rng.integers(0, n_customers, size=n_rows, dtype=np.int64),
        "amount": np.round(rng.exponential(100.0, size=n_rows), 2),
        "quantity": rng.integers(1, 50, size=n_rows, dtype=np.int64),
        "discount": rng.random(n_rows) * 0.1,
    }


def grouped_table(
    n_rows: int, n_groups: int, seed: int
) -> dict[str, np.ndarray]:
    """A (group, value) table, groups drawn uniformly."""
    if n_rows < 0:
        raise ValueError("n_rows must be >= 0")
    if n_groups < 1:
        raise ValueError("need at least one group")
    rng = np.random.default_rng(seed)
    return {
        "group": rng.integers(0, n_groups, size=n_rows, dtype=np.int64),
        "value": rng.random(n_rows),
    }
