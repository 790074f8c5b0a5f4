"""Columnar tables backed by numpy arrays."""

from __future__ import annotations

import numpy as np

from .schema import ColumnType, Schema

__all__ = ["Table"]


class Table:
    """An immutable-by-convention columnar table.

    Columns are numpy arrays of equal length; the schema is derived
    from (and checked against) the arrays.
    """

    def __init__(self, columns: dict[str, np.ndarray]) -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        lengths = {name: len(col) for name, col in columns.items()}
        if len(set(lengths.values())) != 1:
            raise ValueError(f"ragged columns: {lengths}")
        self._columns = {
            name: np.asarray(col) for name, col in columns.items()
        }
        self.schema = Schema(
            tuple(
                (name, ColumnType.from_dtype(col.dtype))
                for name, col in self._columns.items()
            )
        )

    @property
    def n_rows(self) -> int:
        return len(next(iter(self._columns.values())))

    @property
    def column_names(self) -> tuple[str, ...]:
        return self.schema.names

    def column(self, name: str) -> np.ndarray:
        """The backing array of a column."""
        if name not in self._columns:
            raise KeyError(f"no column {name!r}; have {self.column_names}")
        return self._columns[name]

    __getitem__ = column

    @property
    def nbytes(self) -> int:
        """Total payload bytes."""
        return sum(col.nbytes for col in self._columns.values())

    def project(self, names: list[str] | tuple[str, ...]) -> "Table":
        """A table with only ``names`` (validates they exist)."""
        return Table({name: self.column(name) for name in names})

    def filter(self, mask: np.ndarray) -> "Table":
        """A table with rows where ``mask`` is True.

        The selected row ids are computed once and every column is
        gathered with ``take``; when every row is kept, the table itself
        is returned (its columns shared, as ``project`` shares them).
        """
        mask = np.asarray(mask)
        if mask.dtype != np.bool_ or mask.shape != (self.n_rows,):
            raise ValueError(
                f"mask must be bool of shape ({self.n_rows},), "
                f"got {mask.dtype} {mask.shape}"
            )
        rows = np.flatnonzero(mask)
        if len(rows) == self.n_rows:
            return self
        return Table(
            {name: col.take(rows, axis=0)
             for name, col in self._columns.items()}
        )

    def equals(self, other: "Table") -> bool:
        """Exact equality of schema and data."""
        if self.schema != other.schema:
            return False
        return all(
            np.array_equal(self._columns[name], other._columns[name])
            for name in self.column_names
        )

    def __repr__(self) -> str:
        return f"Table({self.n_rows} rows, columns={list(self.column_names)})"
