"""Logical relational operators and query plans.

Operators here are *descriptions*; two engines execute them:

* :mod:`repro.relational.engine` — the CPU engine (numpy data plane +
  roofline costing);
* :mod:`repro.relational.fpga_ops` — stream kernels for the FPGA
  dataflow simulator (the operators Farview pushes into smart memory).

The supported set mirrors what Farview offloads to disaggregated
memory: selection, projection, aggregation, grouped aggregation, and
per-row transforms standing in for compression/encryption.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .expressions import Expr

__all__ = [
    "AggFunc",
    "AggSpec",
    "Filter",
    "GroupByAggregate",
    "Aggregate",
    "Operator",
    "Project",
    "QueryPlan",
    "Transform",
]


class AggFunc(enum.Enum):
    """Supported aggregate functions."""

    SUM = "sum"
    COUNT = "count"
    MIN = "min"
    MAX = "max"
    MEAN = "mean"


@dataclass(frozen=True)
class AggSpec:
    """One aggregate: ``func(column) AS alias``."""

    func: AggFunc
    column: str
    alias: str = ""

    def __post_init__(self) -> None:
        if not self.alias:
            object.__setattr__(
                self, "alias", f"{self.func.value}_{self.column}"
            )


class Operator:
    """Marker base class for plan operators."""


@dataclass(frozen=True)
class Filter(Operator):
    """Keep rows satisfying a boolean predicate."""

    predicate: Expr


@dataclass(frozen=True)
class Project(Operator):
    """Keep only the named columns."""

    columns: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError("projection needs at least one column")


@dataclass(frozen=True)
class Aggregate(Operator):
    """Scalar aggregation over the whole input (one output row)."""

    aggs: tuple[AggSpec, ...]

    def __post_init__(self) -> None:
        if not self.aggs:
            raise ValueError("aggregation needs at least one aggregate")


@dataclass(frozen=True)
class GroupByAggregate(Operator):
    """Grouped aggregation by an integer key column."""

    key: str
    aggs: tuple[AggSpec, ...]

    def __post_init__(self) -> None:
        if not self.aggs:
            raise ValueError("aggregation needs at least one aggregate")


@dataclass(frozen=True)
class Transform(Operator):
    """A per-row transform with a compute cost but no data-shape change.

    Stands in for the per-value operators Farview/SAP-HANA-style smart
    storage applies in the datapath (decompression, decryption, type
    decoding).  ``ops_per_byte`` feeds the cost models.
    """

    name: str
    ops_per_byte: float = 1.0

    def __post_init__(self) -> None:
        if self.ops_per_byte < 0:
            raise ValueError("ops_per_byte must be >= 0")


@dataclass(frozen=True)
class QueryPlan:
    """An operator pipeline applied to a scanned table.

    The plan is a straight line: scan -> op1 -> op2 -> ...  (Farview's
    offload pipelines have exactly this shape; the operators execute on
    the data as it streams out of memory.)
    """

    operators: tuple[Operator, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        seen_agg = False
        for op in self.operators:
            if seen_agg:
                raise ValueError(
                    "no operator may follow an aggregation in a linear plan"
                )
            if isinstance(op, (Aggregate, GroupByAggregate)):
                seen_agg = True

    def then(self, op: Operator) -> "QueryPlan":
        """A new plan with ``op`` appended."""
        return QueryPlan(self.operators + (op,))

    @property
    def has_aggregation(self) -> bool:
        return any(
            isinstance(op, (Aggregate, GroupByAggregate))
            for op in self.operators
        )

    def columns_needed(self, all_columns: tuple[str, ...]) -> tuple[str, ...]:
        """Columns the plan actually touches (for scan pruning).

        Walking backwards: the final projection (or aggregation) fixes
        the output set; predicates add their referenced columns, and an
        earlier projection still reads every column it names.
        """
        needed: set[str] = set()
        narrowed = False
        for op in reversed(self.operators):
            if isinstance(op, Project):
                needed |= set(op.columns)
                narrowed = True
            elif isinstance(op, Aggregate) and not narrowed:
                needed |= {a.column for a in op.aggs}
                narrowed = True
            elif isinstance(op, GroupByAggregate) and not narrowed:
                needed |= {a.column for a in op.aggs} | {op.key}
                narrowed = True
            elif isinstance(op, Filter):
                needed |= op.predicate.columns_used()
        if not narrowed:
            return tuple(all_columns)
        return tuple(c for c in all_columns if c in needed)
