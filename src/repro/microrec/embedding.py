"""Embedding tables whose rows are drawn on demand.

:class:`EmbeddingTables` stores no arrays.  Row ``r`` of table ``t`` is
a pure function of ``(seed, t, r)``: a splitmix64 hash of the
coordinates and the column pair feeds a Box–Muller transform, so a
row's standard-normal values are the same whatever batch or position
it is gathered in.  A batched lookup computes only the rows it is asked
for — the functional ground truth every engine (CPU, MicroRec
accelerator, with or without Cartesian combining) is checked against —
and a production-sized model of hundreds of MiB costs nothing to build.
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


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_LOW32 = np.uint64(0xFFFFFFFF)


def _splitmix(z: np.ndarray) -> np.ndarray:
    """splitmix64 of a uint64 array (wraps mod 2**64, elementwise)."""
    z = z + _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MUL1
    z = (z ^ (z >> np.uint64(27))) * _MUL2
    return z ^ (z >> np.uint64(31))


def embedding_rows(
    seed: int, table: np.ndarray, row: np.ndarray, dim: int
) -> np.ndarray:
    """float32 row ``row`` of table ``table`` (broadcast together).

    Column pair ``p`` of row ``r`` of table ``t`` hashes
    ``(seed, t, r, p)``; the high and low 32 bits of the hash are two
    uniforms, and Box–Muller turns them into columns ``2p`` (cosine)
    and ``2p + 1`` (sine).  The result has shape
    ``broadcast(table, row).shape + (dim,)``, at least 2-D.
    """
    key = _splitmix(np.full(1, seed, dtype=np.uint64))
    key = _splitmix(key + np.asarray(table, dtype=np.uint64))
    key = _splitmix(key + np.asarray(row, dtype=np.uint64))
    pairs = np.arange((dim + 1) // 2, dtype=np.uint64)
    h = _splitmix(key[..., None] + pairs)
    u1 = ((h >> np.uint64(32)).astype(np.float64) + 0.5) * 2.0 ** -32
    angle = (h & _LOW32).astype(np.float64) * (2.0 * np.pi * 2.0 ** -32)
    radius = np.sqrt(-2.0 * np.log(u1))
    out = np.stack((radius * np.cos(angle), radius * np.sin(angle)), axis=-1)
    return out.reshape(*h.shape[:-1], -1)[..., :dim].astype(np.float32)


class EmbeddingTables:
    """The embedding tables of one recommendation model.

    Row ``r`` of table ``t`` is ``embedding_rows(seed, t, r, dim)``:
    float32 values, standard normal in distribution, computed when a
    lookup asks for them.  Sizes are the float32 layout the rows would
    occupy if stored, derived from the spec.
    """

    def __init__(self, spec: RecModelSpec, seed: int) -> None:
        if seed < 0:
            raise ValueError("seed must be >= 0")
        self.spec = spec
        self.seed = seed

    @property
    def n_tables(self) -> int:
        return self.spec.n_tables

    def rows(self, table: int, ids: np.ndarray) -> np.ndarray:
        """``(len(ids), embedding_dim)`` rows of one table."""
        ids = np.asarray(ids)
        n_rows = self.spec.table_rows[table]
        if ids.size and (ids.min() < 0 or ids.max() >= n_rows):
            raise IndexError(f"row ids out of range for table {table}")
        return embedding_rows(self.seed, table, ids, self.spec.embedding_dim)

    def lookup(self, trace: np.ndarray) -> np.ndarray:
        """Gather and concatenate embeddings for a lookup trace.

        ``trace`` is ``(batch, n_tables)`` row ids; the result is
        ``(batch, n_tables * embedding_dim)`` float32.
        """
        trace = check_trace(self.spec, trace)
        rows = embedding_rows(
            self.seed, np.arange(self.n_tables), trace, self.spec.embedding_dim
        )
        return rows.reshape(len(trace), -1)
