"""Cartesian-product table combining — MicroRec's data-structure trick.

Two embedding tables of ``a`` and ``b`` rows can be replaced by one
table of ``a x b`` rows whose entry ``(i, j)`` stores the concatenation
of the two original embeddings.  One lookup then replaces two, at the
price of ``a x b / (a + b)`` times the memory.  Applied to the *small*
tables, this cuts the number of memory accesses per inference — the
dominant cost — while the capacity overhead stays affordable.

:class:`CartesianPlan` picks which tables to combine under a byte
budget (greedily, smallest product first, exactly the heuristic the
MicroRec paper describes) and rewrites model spec, lookup traces, and
materialised tables consistently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..workloads.traces import RecModelSpec
from .embedding import EmbeddingTables, check_trace

__all__ = ["CartesianPlan", "plan_cartesian"]


@dataclass(frozen=True)
class CartesianPlan:
    """Which original tables merge into which combined tables.

    ``groups[g]`` is a tuple of original table indices that fused into
    combined table ``g`` (singleton groups are uncombined tables).
    Combined row id = row-major mixed-radix encoding of the member ids.
    """

    spec: RecModelSpec
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        flat = [t for group in self.groups for t in group]
        if sorted(flat) != list(range(self.spec.n_tables)):
            raise ValueError(
                "groups must partition the original tables exactly once"
            )
        if any(not group for group in self.groups):
            raise ValueError("empty group")

    @property
    def n_lookups(self) -> int:
        """Memory accesses per inference after combining."""
        return len(self.groups)

    def combined_spec(self) -> RecModelSpec:
        """The model spec after combining (same MLP, wider rows)."""
        rows = tuple(
            int(np.prod([self.spec.table_rows[t] for t in group]))
            for group in self.groups
        )
        # Embedding "dim" per combined table varies; RecModelSpec assumes
        # uniform dim, so we keep the original spec's total width by
        # tracking dims separately (see combined_dims).
        return RecModelSpec(
            table_rows=rows,
            embedding_dim=self.spec.embedding_dim,
            mlp_layers=self.spec.mlp_layers,
            bytes_per_value=self.spec.bytes_per_value,
        )

    def combined_dims(self) -> tuple[int, ...]:
        """Embedding width of each combined table."""
        return tuple(
            len(group) * self.spec.embedding_dim for group in self.groups
        )

    def combined_row_bytes(self) -> tuple[int, ...]:
        """Bytes of one row of each combined table."""
        return tuple(
            d * self.spec.bytes_per_value for d in self.combined_dims()
        )

    def combined_table_bytes(self) -> tuple[int, ...]:
        """Total bytes of each combined table."""
        rows = self.combined_spec().table_rows
        return tuple(r * b for r, b in zip(rows, self.combined_row_bytes()))

    @property
    def total_bytes(self) -> int:
        return sum(self.combined_table_bytes())

    @property
    def capacity_overhead(self) -> float:
        """Combined bytes / original bytes."""
        return self.total_bytes / max(1, self.spec.total_embedding_bytes)

    # -- rewriting ------------------------------------------------------------

    def rewrite_trace(self, trace: np.ndarray) -> np.ndarray:
        """Map an original ``(batch, n_tables)`` trace to combined ids.

        Out-of-range member ids raise ``IndexError`` rather than alias
        another row's combined id.
        """
        trace = check_trace(self.spec, trace)
        out = np.zeros((len(trace), self.n_lookups), dtype=np.int64)
        for g, group in enumerate(self.groups):
            for t in group:
                out[:, g] = out[:, g] * self.spec.table_rows[t] + trace[:, t]
        return out

    def decode_trace(self, combined: np.ndarray) -> np.ndarray:
        """Invert :meth:`rewrite_trace`: combined ids back to the
        original ``(batch, n_tables)`` member row ids.

        Each combined id is peeled with ``divmod`` in reverse member
        order, the last member being the least significant digit.
        """
        combined = np.asarray(combined)
        out = np.empty((len(combined), self.spec.n_tables), dtype=np.int64)
        for g, group in enumerate(self.groups):
            ids = combined[:, g]
            for t in reversed(group):
                ids, out[:, t] = np.divmod(ids, self.spec.table_rows[t])
        return out

    def materialize(self, tables: EmbeddingTables) -> list[np.ndarray]:
        """Build the combined tables' arrays from the original rows.

        Combined entry rows concatenate member embeddings in group
        order, consistent with :meth:`rewrite_trace`'s id encoding.
        The reference layout: :meth:`lookup` never builds it, and sizes
        come from :meth:`combined_table_bytes` alone.
        """
        self._check_tables(tables)
        combined: list[np.ndarray] = []
        for group in self.groups:
            grids = np.meshgrid(
                *[np.arange(self.spec.table_rows[t]) for t in group],
                indexing="ij",
            )
            parts = [
                tables.rows(t, g.reshape(-1)) for t, g in zip(group, grids)
            ]
            combined.append(np.concatenate(parts, axis=1))
        return combined

    def lookup(self, tables: EmbeddingTables, trace: np.ndarray) -> np.ndarray:
        """Functional lookup through the combined layout.

        The trace is rewritten to combined ids, each combined id is
        decoded back to the member rows its combined row holds, and
        those rows are gathered in *original table order*; no combined
        table is built.  A faithful encoding makes the result equal the
        uncombined gather.
        """
        self._check_tables(tables)
        return tables.lookup(self.decode_trace(self.rewrite_trace(trace)))

    def _check_tables(self, tables: EmbeddingTables) -> None:
        if tables.spec is not self.spec and tables.spec != self.spec:
            raise ValueError("tables were built from a different spec")


def plan_cartesian(
    spec: RecModelSpec,
    byte_budget: int,
    max_group_rows: int = 1 << 22,
) -> CartesianPlan:
    """Greedily combine the smallest tables under a byte budget.

    Repeatedly fuse the two groups with the smallest row-count product
    while (a) the fused group stays under ``max_group_rows`` rows and
    (b) the total materialised size stays within ``byte_budget``.
    ``byte_budget <= original size`` yields the identity plan.
    """
    if byte_budget < 0:
        raise ValueError("byte budget must be >= 0")
    groups: list[tuple[int, ...]] = [(t,) for t in range(spec.n_tables)]

    def group_rows(group: tuple[int, ...]) -> int:
        return int(np.prod([spec.table_rows[t] for t in group]))

    def group_bytes(group: tuple[int, ...]) -> int:
        return (
            group_rows(group)
            * len(group)
            * spec.embedding_dim
            * spec.bytes_per_value
        )

    while len(groups) > 1:
        # Candidate: fuse the two groups with the smallest row counts.
        order = sorted(range(len(groups)), key=lambda i: group_rows(groups[i]))
        a, b = order[0], order[1]
        fused = tuple(sorted(groups[a] + groups[b]))
        if group_rows(fused) > max_group_rows:
            break
        trial = [g for i, g in enumerate(groups) if i not in (a, b)] + [fused]
        total = sum(group_bytes(g) for g in trial)
        if total > byte_budget:
            break
        groups = trial
    groups.sort()
    return CartesianPlan(spec=spec, groups=tuple(groups))
