"""Relational operators as FPGA stream kernels.

Each logical operator becomes a pipelined kernel processing a stream of
row bursts at line rate: a 512-bit datapath accepts ``64 //
row_bytes`` rows per cycle (at least one), with II=1 — the "process the
stream as it leaves memory, for free" property the tutorial emphasises.

:func:`make_operator_kernel` synthesizes one operator into its
:class:`~repro.core.kernel.KernelSpec` (depth, unroll, resources); the
offload paths price those specs and compute results with the CPU
engine's numpy implementations.
"""

from __future__ import annotations

from ..core.clocking import FABRIC_300MHZ, ClockDomain
from ..core.device import ResourceVector
from ..core.kernel import KernelSpec
from .operators import (
    Aggregate,
    Filter,
    GroupByAggregate,
    Operator,
    Project,
    QueryPlan,
    Transform,
)

__all__ = ["make_operator_kernel", "plan_kernels", "rows_per_cycle"]

_DATAPATH_BYTES = 64  # 512-bit AXI stream


def rows_per_cycle(row_nbytes: int, datapath_bytes: int = _DATAPATH_BYTES) -> int:
    """Rows a 512-bit datapath accepts per cycle (>= 1)."""
    if row_nbytes < 1:
        raise ValueError("row size must be >= 1 byte")
    return max(1, datapath_bytes // row_nbytes)


def _spec(name: str, op_depth: int, row_nbytes: int, clock: ClockDomain,
          resources: ResourceVector) -> KernelSpec:
    return KernelSpec(
        name=name,
        ii=1,
        depth=op_depth,
        unroll=rows_per_cycle(row_nbytes),
        clock=clock,
        resources=resources,
    )


def make_operator_kernel(
    op: Operator,
    row_nbytes: int,
    clock: ClockDomain = FABRIC_300MHZ,
) -> KernelSpec:
    """Synthesize one operator into its pipelined kernel spec."""
    if isinstance(op, Filter):
        n_cmp = max(1, op.predicate.op_count())
        return _spec(
            "filter", 4 + n_cmp, row_nbytes, clock,
            ResourceVector(lut=2_000 * n_cmp, ff=3_000 * n_cmp),
        )
    if isinstance(op, Project):
        return _spec(
            "project", 2, row_nbytes, clock,
            ResourceVector(lut=1_500, ff=2_000),
        )
    if isinstance(op, Transform):
        depth = 8 + int(4 * op.ops_per_byte)
        return _spec(
            f"transform-{op.name}", depth, row_nbytes, clock,
            ResourceVector(lut=12_000, ff=18_000, dsp=16),
        )
    if isinstance(op, Aggregate):
        return _spec(
            "aggregate", 8, row_nbytes, clock,
            ResourceVector(lut=4_000, ff=6_000, dsp=8 * len(op.aggs)),
        )
    if isinstance(op, GroupByAggregate):
        return _spec(
            "groupby", 16, row_nbytes, clock,
            ResourceVector(
                lut=25_000, ff=35_000, bram_36k=32, dsp=8 * len(op.aggs),
            ),
        )
    raise TypeError(f"unknown operator {type(op).__name__}")


def plan_kernels(
    plan: QueryPlan,
    row_nbytes: int,
    clock: ClockDomain = FABRIC_300MHZ,
) -> list[KernelSpec]:
    """Synthesize every operator of a plan."""
    return [make_operator_kernel(op, row_nbytes, clock)
            for op in plan.operators]
