"""Unit tests for schemas and columnar tables."""

import numpy as np
import pytest

from repro.relational.schema import ColumnType, Schema
from repro.relational.table import Table


def _table(n=10):
    return Table(
        {
            "key": np.arange(n, dtype=np.int64),
            "val": np.linspace(0.0, 1.0, n),
        }
    )


def test_column_type_widths():
    assert ColumnType.INT64.nbytes == 8
    assert ColumnType.FLOAT32.nbytes == 4
    assert ColumnType.BOOL.nbytes == 1
    assert ColumnType.from_dtype(np.dtype("float64")) is ColumnType.FLOAT64
    with pytest.raises(TypeError):
        ColumnType.from_dtype(np.dtype("complex128"))


def test_schema_row_bytes_and_lookup():
    schema = Schema.of(key=ColumnType.INT64, val=ColumnType.FLOAT64)
    assert schema.row_nbytes == 16
    assert dict(schema.columns)["key"] is ColumnType.INT64
    assert schema.names == ("key", "val")


def test_schema_duplicate_names_rejected():
    with pytest.raises(ValueError):
        Schema((("a", ColumnType.INT64), ("a", ColumnType.INT64)))


def test_table_derives_schema():
    t = _table()
    assert t.schema == Schema.of(key=ColumnType.INT64, val=ColumnType.FLOAT64)
    assert t.n_rows == 10
    assert t.nbytes == 10 * 16


def test_table_validation():
    with pytest.raises(ValueError):
        Table({})
    with pytest.raises(ValueError):
        Table({"a": np.arange(3), "b": np.arange(4)})


def test_project_and_getitem():
    t = _table()
    p = t.project(["val"])
    assert p.column_names == ("val",)
    assert np.array_equal(t["key"], np.arange(10))
    with pytest.raises(KeyError):
        t.column("ghost")


def test_filter_by_mask():
    t = _table()
    f = t.filter(t["key"] < 3)
    assert f.n_rows == 3
    assert np.array_equal(f["key"], [0, 1, 2])
    with pytest.raises(ValueError):
        t.filter(np.ones(5, dtype=bool))
    with pytest.raises(ValueError):
        t.filter(np.ones(10, dtype=np.int64))


def test_equals():
    assert _table().equals(_table())
    assert not _table().equals(_table(5))
    other = Table({"key": np.arange(10, dtype=np.int64),
                   "other": np.zeros(10)})
    assert not _table().equals(other)


def test_equals_compares_column_types():
    ints = Table({"a": np.array([1, 2], dtype=np.int64)})
    floats = Table({"a": np.array([1.0, 2.0], dtype=np.float64)})
    assert not ints.equals(floats)
    assert not floats.equals(ints)
    assert ints.equals(Table({"a": np.array([1, 2], dtype=np.int64)}))


def _mixed_table(n, rng):
    return Table({
        "i": rng.integers(-50, 50, size=n, dtype=np.int64),
        "f": rng.random(n),
        "b": rng.random(n) < 0.5,
        "i32": rng.integers(0, 9, size=n).astype(np.int32),
    })


def _masked_gather(table, mask):
    return Table({name: table[name][mask] for name in table.column_names})


@pytest.mark.parametrize("n", [0, 1, 7, 1000])
@pytest.mark.parametrize("kind", ["all-false", "all-true", "random"])
def test_filter_equals_boolean_mask_gather(n, kind):
    rng = np.random.default_rng(n)
    t = _mixed_table(n, rng)
    mask = {
        "all-false": np.zeros(n, dtype=bool),
        "all-true": np.ones(n, dtype=bool),
        "random": rng.random(n) < 0.3,
    }[kind]
    got = t.filter(mask)
    assert got.equals(_masked_gather(t, mask))
    assert got.column_names == t.column_names
    for name in t.column_names:
        assert got[name].dtype == t[name].dtype


def test_filter_keeping_every_row_shares_the_table():
    t = _table()
    assert t.filter(np.ones(10, dtype=bool)) is t


def test_filter_over_non_contiguous_column_views():
    rng = np.random.default_rng(5)
    base_i = rng.integers(0, 100, size=(40, 3), dtype=np.int64)
    base_f = rng.random(80)
    base_b = rng.random((2, 20)) < 0.5
    t = Table({"i": base_i[::2, 1], "f": base_f[::-4], "b": base_b[1]})
    assert not t["i"].flags.c_contiguous
    assert not t["f"].flags.c_contiguous
    for mask in (rng.random(20) < 0.5, np.zeros(20, dtype=bool),
                 np.ones(20, dtype=bool)):
        assert t.filter(mask).equals(_masked_gather(t, mask))
