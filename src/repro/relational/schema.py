"""Schemas for the columnar relational substrate.

A :class:`Schema` is an ordered mapping of column names to
:class:`ColumnType`.  It knows byte widths — the quantity every
offload-vs-fetch argument is ultimately about.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = ["ColumnType", "Schema"]


class ColumnType(enum.Enum):
    """Supported column storage types."""

    INT64 = "int64"
    FLOAT64 = "float64"
    FLOAT32 = "float32"
    INT32 = "int32"
    BOOL = "bool"

    @property
    def nbytes(self) -> int:
        """Bytes per value."""
        return np.dtype(self.value).itemsize

    @classmethod
    def from_dtype(cls, dtype: np.dtype) -> "ColumnType":
        """Map a numpy dtype to a column type."""
        name = np.dtype(dtype).name
        for member in cls:
            if member.value == name:
                return member
        raise TypeError(f"unsupported column dtype: {dtype}")


@dataclass(frozen=True)
class Schema:
    """An ordered set of typed columns."""

    columns: tuple[tuple[str, ColumnType], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.columns]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate column names in schema: {names}")

    @classmethod
    def of(cls, **cols: ColumnType) -> "Schema":
        """Build a schema from keyword arguments."""
        return cls(tuple(cols.items()))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.columns)

    @property
    def row_nbytes(self) -> int:
        """Bytes of one row across all columns."""
        return sum(ctype.nbytes for _, ctype in self.columns)
