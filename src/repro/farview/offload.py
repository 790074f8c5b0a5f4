"""Offload pipeline construction and timing for the Farview memory node.

A Farview query pushes a linear operator pipeline into the smart-memory
node; the data streams **memory -> operators -> network** without ever
visiting a CPU.  This module times that chain with
:func:`~repro.core.dataflow.solve_chain`:

* a :class:`~repro.core.dataflow.RateStage` for the striped memory scan
  (rows/s = aggregate DRAM bandwidth / row bytes);
* one kernel stage per operator (specs from
  :mod:`repro.relational.fpga_ops`); the link leaving an operator
  carries its *measured* selectivity as the gain, so the analytic
  throughput matches the functional execution;
* a rate stage for the network egress (rows/s at the result row width).

:func:`offload_query` runs the functional pipeline (numpy, exact result)
to measure per-operator row counts, then solves the chain for timing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.dataflow import RateStage, ThroughputReport, solve_chain
from ..network.protocol import ProtocolModel
from ..relational.engine import _apply
from ..relational.fpga_ops import plan_kernels
from ..relational.operators import QueryPlan
from ..relational.table import Table

__all__ = ["OffloadExecution", "offload_query"]

_PS_PER_S = 1_000_000_000_000


@dataclass(frozen=True)
class OffloadExecution:
    """Result + timing of one offloaded query on the memory node."""

    result: Table
    processing_s: float       # memory->operators->egress streaming time
    report: ThroughputReport  # the solved dataflow region
    scan_bytes: int           # bytes read from disaggregated DRAM
    result_bytes: int         # bytes shipped back over the network


def offload_query(
    plan: QueryPlan,
    table: Table,
    memory_bandwidth_bytes_per_sec: float,
    memory_latency_s: float,
    protocol: ProtocolModel,
) -> OffloadExecution:
    """Execute ``plan`` on the smart-memory node and time it.

    The scan is column-pruned: only the columns the plan touches leave
    DRAM (Farview stores columnar tables and materialises rows in the
    datapath).
    """
    if memory_bandwidth_bytes_per_sec <= 0:
        raise ValueError("memory bandwidth must be positive")
    if memory_latency_s < 0:
        raise ValueError("memory latency must be >= 0")
    touched = plan.columns_needed(table.column_names)
    pruned = table.project(touched)
    n_rows = pruned.n_rows
    row_nbytes = max(1, pruned.schema.row_nbytes)
    scan_bytes = pruned.nbytes

    # Functional pass: exact result + measured per-operator gains.
    gains: list[float] = []
    current = pruned
    for op in plan.operators:
        rows_in = max(1, current.n_rows)
        current = _apply(op, current)
        gains.append(current.n_rows / rows_in)
    result = current
    result_bytes = result.nbytes
    out_row_nbytes = max(1, result.schema.row_nbytes)

    # Analytic dataflow: scan -> kernels -> egress, with measured gains
    # on the link *leaving* each operator.
    scan = RateStage(
        "dram-scan",
        rate_items_per_sec=memory_bandwidth_bytes_per_sec / row_nbytes,
        latency_seconds=memory_latency_s,
    )
    egress = RateStage(
        "net-egress",
        rate_items_per_sec=protocol.link.bandwidth_bytes_per_sec / out_row_nbytes,
        latency_seconds=protocol.message_ps(0) / _PS_PER_S,
    )
    kernels = plan_kernels(plan, row_nbytes)
    report = solve_chain([scan, *kernels, egress], [1.0, *gains])
    processing_s = report.time_for_items(max(n_rows, 1))
    return OffloadExecution(
        result=result,
        processing_s=processing_s,
        report=report,
        scan_bytes=scan_bytes,
        result_bytes=result_bytes,
    )
