"""Tests for relational operators as FPGA kernel specs."""

import pytest

from repro.relational.expressions import col
from repro.relational.fpga_ops import make_operator_kernel, rows_per_cycle
from repro.relational.operators import Filter, Project


def test_rows_per_cycle():
    assert rows_per_cycle(16) == 4
    assert rows_per_cycle(64) == 1
    assert rows_per_cycle(200) == 1
    with pytest.raises(ValueError):
        rows_per_cycle(0)


def test_wider_rows_lower_unroll():
    narrow = make_operator_kernel(Project(("a",)), row_nbytes=8)
    wide = make_operator_kernel(Project(("a",)), row_nbytes=64)
    assert narrow.unroll == 8
    assert wide.unroll == 1
    assert narrow.throughput_items_per_sec() > wide.throughput_items_per_sec()


def test_filter_depth_grows_with_predicate_complexity():
    simple = make_operator_kernel(Filter(col("a") < 1), row_nbytes=16)
    complex_ = make_operator_kernel(
        Filter((col("a") < 1) & (col("b") > 2) & (col("c") == 3)),
        row_nbytes=16,
    )
    assert complex_.depth > simple.depth
