"""Recommendation-inference workloads: model shapes and lookup traces.

MicroRec's production workloads (Alibaba CTR models) are proprietary;
the substitute preserves what the accelerator design exploits:

* **many tables** (tens to hundreds) of wildly different cardinalities
  (a log-uniform spread from tens of rows to millions);
* **one lookup per table per inference**;
* **skew** in which rows are hit (Zipf), which drives the SRAM-vs-HBM
  placement decision.

:class:`RecModelSpec` describes a model (table cardinalities, embedding
dimension, MLP layer widths); :func:`lookup_trace` draws a batch of
per-table row ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .zipf import ZipfSampler

__all__ = ["RecModelSpec", "lookup_trace", "production_like_model"]


@dataclass(frozen=True)
class RecModelSpec:
    """The shape of a deep recommendation model.

    ``table_rows[i]`` is the cardinality of embedding table ``i``; every
    inference looks up exactly one row per table, concatenates the
    embeddings, and runs them through fully-connected layers of widths
    ``mlp_layers`` down to a single CTR logit.
    """

    table_rows: tuple[int, ...]
    embedding_dim: int = 16
    mlp_layers: tuple[int, ...] = (1024, 512, 256)
    bytes_per_value: int = 4

    def __post_init__(self) -> None:
        if not self.table_rows:
            raise ValueError("a recommendation model needs at least one table")
        if any(r < 1 for r in self.table_rows):
            raise ValueError("every table needs at least one row")
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")
        if self.bytes_per_value < 1:
            raise ValueError("bytes_per_value must be >= 1")

    @property
    def n_tables(self) -> int:
        return len(self.table_rows)

    @property
    def embedding_bytes(self) -> int:
        """Bytes of one embedding vector."""
        return self.embedding_dim * self.bytes_per_value

    def table_bytes(self, table: int) -> int:
        """Total bytes of one table."""
        return self.table_rows[table] * self.embedding_bytes

    @property
    def total_embedding_bytes(self) -> int:
        return sum(self.table_bytes(t) for t in range(self.n_tables))

    @property
    def concat_width(self) -> int:
        """Input width of the first FC layer."""
        return self.n_tables * self.embedding_dim

    def mlp_flops(self) -> int:
        """Multiply-accumulate count of one inference through the MLP."""
        widths = (self.concat_width, *self.mlp_layers, 1)
        return sum(a * b for a, b in zip(widths[:-1], widths[1:]))


def production_like_model(
    n_tables: int = 47,
    embedding_dim: int = 16,
    max_rows: int = 2_000_000,
    min_rows: int = 10,
    seed: int = 23,
) -> RecModelSpec:
    """A model with a log-uniform spread of table cardinalities.

    47 tables / dim-16 embeddings mirrors the smaller production model
    MicroRec reports; cardinalities span ``min_rows``..``max_rows``.
    """
    if n_tables < 1:
        raise ValueError("need at least one table")
    if not 1 <= min_rows <= max_rows:
        raise ValueError("need 1 <= min_rows <= max_rows")
    rng = np.random.default_rng(seed)
    log_rows = rng.uniform(np.log(min_rows), np.log(max_rows), size=n_tables)
    rows = tuple(int(round(np.exp(x))) for x in sorted(log_rows))
    return RecModelSpec(table_rows=rows, embedding_dim=embedding_dim)


def lookup_trace(
    spec: RecModelSpec,
    batch_size: int,
    skew: float = 0.8,
    seed: int = 29,
) -> np.ndarray:
    """Draw a ``(batch_size, n_tables)`` matrix of row ids.

    Each column is a Zipf(``skew``) draw over that table's rows.
    """
    if batch_size < 0:
        raise ValueError("batch_size must be >= 0")
    rng = np.random.default_rng(seed)
    trace = np.empty((batch_size, spec.n_tables), dtype=np.int64)
    for t, rows in enumerate(spec.table_rows):
        sampler = ZipfSampler(rows, skew, rng)
        trace[:, t] = sampler.sample(batch_size)
    return trace
