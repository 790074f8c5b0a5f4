"""Unit tests for predicate expressions."""

import numpy as np
import pytest

from repro.relational.expressions import BinOp, Const, col
from repro.relational.table import Table


def _table():
    return Table(
        {
            "a": np.array([1, 2, 3, 4], dtype=np.int64),
            "b": np.array([4.0, 3.0, 2.0, 1.0]),
        }
    )


def test_comparisons():
    t = _table()
    assert np.array_equal((col("a") < 3).evaluate(t), [True, True, False, False])
    assert np.array_equal((col("a") >= 2).evaluate(t), [False, True, True, True])
    assert np.array_equal((col("a") == 2).evaluate(t), [False, True, False, False])
    assert np.array_equal((col("a") != 2).evaluate(t), [True, False, True, True])


def test_column_vs_column():
    t = _table()
    assert np.array_equal(
        (col("a") > col("b")).evaluate(t), [False, False, True, True]
    )


def test_boolean_connectives():
    t = _table()
    both = ((col("a") > 1) & (col("b") > 1.5)).evaluate(t)
    assert np.array_equal(both, [False, True, True, False])


def test_op_count_and_columns_used():
    expr = (col("a") > 1) & (col("b") < Const(2.0))
    assert expr.op_count() == 3
    assert expr.columns_used() == {"a", "b"}
    assert Const(5).op_count() == 0


def test_unsupported_operator_rejected():
    with pytest.raises(ValueError):
        BinOp("%", col("a"), Const(2))


def test_repr_is_readable():
    expr = (col("a") > 1) & (col("b") == 0)
    text = repr(expr)
    assert "a" in text and "and" in text
