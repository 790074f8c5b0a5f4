"""Unit tests for predicate expressions."""

import numpy as np
import pytest

from repro.relational.expressions import BinOp, col, lit
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
    either = ((col("a") == 1) | (col("b") == 1.0)).evaluate(t)
    assert np.array_equal(either, [True, False, False, True])
    negated = (~(col("a") > 2)).evaluate(t)
    assert np.array_equal(negated, [True, True, False, False])


def test_op_count_and_columns_used():
    expr = (col("a") > 1) & (col("b") < lit(2.0))
    assert expr.op_count() == 3
    assert expr.columns_used() == {"a", "b"}
    assert lit(5).op_count() == 0
    assert (~(col("a") > 0)).op_count() == 2


def test_unsupported_operator_rejected():
    with pytest.raises(ValueError):
        BinOp("%", col("a"), lit(2))


def test_repr_is_readable():
    expr = (col("a") > 1) & ~(col("b") == 0)
    text = repr(expr)
    assert "a" in text and "and" in text and "~" in text
