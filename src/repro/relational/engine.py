"""The CPU relational engine: numpy data plane + roofline costing.

:func:`execute` runs a :class:`~repro.relational.operators.QueryPlan`
over a :class:`~repro.relational.table.Table` and returns the result
table — this is the functional ground truth every other engine
(Farview's offload pipeline included) is checked against.

:func:`cpu_cost_s` prices the same plan on a
:class:`~repro.baselines.cpu.CpuModel`, which gives the CPU side of the
line-rate comparisons (E2).
"""

from __future__ import annotations

import numpy as np

from ..baselines.cpu import CpuModel
from .operators import (
    AggFunc,
    AggSpec,
    Aggregate,
    Filter,
    GroupByAggregate,
    Operator,
    Project,
    QueryPlan,
    Transform,
)
from .table import Table

__all__ = ["cpu_cost_s", "execute"]


def _apply_agg(func: AggFunc, values: np.ndarray) -> float:
    if func is AggFunc.COUNT:
        return float(len(values))
    if len(values) == 0:
        raise ValueError(f"{func.value} over zero rows is undefined")
    match func:
        case AggFunc.SUM:
            return float(values.sum())
        case AggFunc.MIN:
            return float(values.min())
        case AggFunc.MAX:
            return float(values.max())
        case AggFunc.MEAN:
            return float(values.mean())
    raise AssertionError("unreachable")


def _grouped_aggregate(table: Table, key: str,
                       aggs: tuple[AggSpec, ...]) -> Table:
    keys = table.column(key)
    if keys.dtype.kind not in "iu":
        raise TypeError(f"group key {key!r} must be an integer column")
    uniques, inverse = np.unique(keys, return_inverse=True)
    out: dict[str, np.ndarray] = {key: uniques}
    counts = np.bincount(inverse, minlength=len(uniques))
    for agg in aggs:
        values = table.column(agg.column)
        match agg.func:
            case AggFunc.COUNT:
                result = counts.astype(np.float64)
            case AggFunc.SUM:
                result = np.bincount(
                    inverse, weights=values, minlength=len(uniques)
                )
            case AggFunc.MEAN:
                sums = np.bincount(
                    inverse, weights=values, minlength=len(uniques)
                )
                result = sums / counts
            case AggFunc.MIN:
                result = np.full(len(uniques), np.inf)
                np.minimum.at(result, inverse, values)
            case AggFunc.MAX:
                result = np.full(len(uniques), -np.inf)
                np.maximum.at(result, inverse, values)
            case _:
                raise AssertionError("unreachable")
        out[agg.alias] = result
    return Table(out)


def _apply(op: Operator, table: Table) -> Table:
    if isinstance(op, Filter):
        mask = np.asarray(op.predicate.evaluate(table), dtype=bool)
        return table.filter(mask)
    if isinstance(op, Project):
        return table.project(op.columns)
    if isinstance(op, Transform):
        return table  # value-preserving stand-in (cost model only)
    if isinstance(op, Aggregate):
        return Table(
            {
                agg.alias: np.array(
                    [_apply_agg(agg.func, table.column(agg.column))]
                )
                for agg in op.aggs
            }
        )
    if isinstance(op, GroupByAggregate):
        return _grouped_aggregate(table, op.key, op.aggs)
    raise TypeError(f"unknown operator {type(op).__name__}")


def execute(plan: QueryPlan, table: Table) -> Table:
    """Run ``plan`` over ``table``; returns the result table.

    The input is first pruned to the columns the plan touches, as the
    offload scan prunes it, so no operator gathers a column that a
    later projection or aggregation drops.
    """
    result = table.project(plan.columns_needed(table.column_names))
    for op in plan.operators:
        result = _apply(op, result)
    return result


def cpu_cost_s(
    plan: QueryPlan,
    table: Table,
    cpu: CpuModel,
    parallel: bool = True,
) -> float:
    """Roofline cost of running ``plan`` over ``table`` on ``cpu``.

    Charges a streaming pass over the touched columns per pipeline
    (vectorised engines fuse filter+project+agg into one pass) plus the
    per-row operation counts of predicates, transforms and aggregates.
    """
    touched = plan.columns_needed(table.column_names)
    scan_bytes = sum(table.column(c).nbytes for c in touched)
    n = table.n_rows
    ops = 0.0
    rows_alive = float(n)
    alive = None  # conjunction of the filters so far
    for op in plan.operators:
        if isinstance(op, Filter):
            ops += op.predicate.op_count() * rows_alive
            mask = np.asarray(op.predicate.evaluate(table), dtype=bool)
            alive = mask if alive is None else alive & mask
            rows_alive = float(alive.sum())
        elif isinstance(op, Transform):
            row_bytes = sum(table.column(c).nbytes for c in touched) / max(n, 1)
            ops += op.ops_per_byte * row_bytes * rows_alive
        elif isinstance(op, Aggregate):
            ops += len(op.aggs) * rows_alive
        elif isinstance(op, GroupByAggregate):
            # Hash/group maintenance: ~4 ops/row plus the aggregates.
            ops += (4 + len(op.aggs)) * rows_alive
    return max(
        cpu.stream_time_s(scan_bytes, parallel),
        cpu.compute_time_s(int(ops), element_bytes=8, parallel=parallel),
    )
