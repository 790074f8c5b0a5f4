"""Embedding table storage and functional lookups.

:class:`EmbeddingTables` materialises the tables of a
:class:`~repro.workloads.traces.RecModelSpec` as numpy arrays and
answers batched lookups — the functional ground truth every engine
(CPU, MicroRec accelerator, with or without Cartesian combining) is
checked against.
"""

from __future__ import annotations

import numpy as np

from ..workloads.traces import RecModelSpec

__all__ = ["EmbeddingTables"]


def check_trace(spec: RecModelSpec, trace: np.ndarray) -> np.ndarray:
    """``trace`` as an array; ValueError on bad shape, IndexError on bad ids."""
    trace = np.asarray(trace)
    if trace.ndim != 2 or trace.shape[1] != spec.n_tables:
        raise ValueError(
            f"trace must be (batch, {spec.n_tables}), got {trace.shape}"
        )
    for t, rows in enumerate(spec.table_rows):
        column = trace[:, t]
        if column.size and (column.min() < 0 or column.max() >= rows):
            raise IndexError(f"trace ids out of range for table {t}")
    return trace


# float64 normals drawn per chunk while filling a float32 table (512 KiB).
_NORMAL_CHUNK = 1 << 16


class EmbeddingTables:
    """The embedding tables of one recommendation model.

    Table ``t`` holds ``standard_normal((rows, dim)).astype(float32)``,
    drawn for each table in turn from one generator seeded with
    ``seed``.  The normals are drawn ``_NORMAL_CHUNK`` at a time into one
    float64 buffer and cast into the table, so no float64 copy of a
    whole table exists; ``Generator``'s normals carry no state from one
    draw to the next, so the values are the one-shot draw's bit for bit.
    """

    def __init__(self, spec: RecModelSpec, seed: int = 0) -> None:
        self.spec = spec
        rng = np.random.default_rng(seed)
        buf = np.empty(_NORMAL_CHUNK)
        self.tables: list[np.ndarray] = []
        for rows in spec.table_rows:
            table = np.empty((rows, spec.embedding_dim), dtype=np.float32)
            flat = table.reshape(-1)
            for start in range(0, flat.size, _NORMAL_CHUNK):
                part = buf[:flat.size - start]
                rng.standard_normal(out=part)
                flat[start:start + part.size] = part
            self.tables.append(table)

    @property
    def n_tables(self) -> int:
        return self.spec.n_tables

    def table_nbytes(self, table: int) -> int:
        """Bytes of one table as stored."""
        return self.tables[table].nbytes

    @property
    def total_nbytes(self) -> int:
        return sum(t.nbytes for t in self.tables)

    def lookup(self, trace: np.ndarray) -> np.ndarray:
        """Gather and concatenate embeddings for a lookup trace.

        ``trace`` is ``(batch, n_tables)`` row ids; the result is
        ``(batch, n_tables * embedding_dim)`` float32.
        """
        trace = check_trace(self.spec, trace)
        parts = [self.tables[t][trace[:, t]] for t in range(self.n_tables)]
        return np.concatenate(parts, axis=1)
