"""Columnar relational substrate: tables, predicates, operators, engines.

The functional ground truth is the numpy CPU engine
(:func:`~repro.relational.engine.execute`); the FPGA stream operators
(:mod:`repro.relational.fpga_ops`) are the kernel specs that price a
plan, and are what Farview offloads to smart memory.
"""

from .engine import cpu_cost_s, execute
from .expressions import BinOp, Col, Const, Expr, col
from .fpga_ops import make_operator_kernel, plan_kernels, rows_per_cycle
from .join import FpgaJoinModel, JoinTiming, cpu_join_time_s, hash_join
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
from .schema import ColumnType, Schema
from .table import Table

__all__ = [
    "AggFunc",
    "AggSpec",
    "Aggregate",
    "BinOp",
    "Col",
    "ColumnType",
    "Const",
    "Expr",
    "Filter",
    "FpgaJoinModel",
    "GroupByAggregate",
    "JoinTiming",
    "Operator",
    "Project",
    "QueryPlan",
    "Schema",
    "Table",
    "Transform",
    "col",
    "cpu_cost_s",
    "cpu_join_time_s",
    "execute",
    "hash_join",
    "make_operator_kernel",
    "plan_kernels",
    "rows_per_cycle",
]
