"""Cost-based offload planning: predict, then pick offload or fetch.

A real engine in front of disaggregated memory decides *per query*
whether pushing the pipeline down pays (a full-table projection does
not; a selective aggregate does).  :class:`OffloadPlanner` makes that
call the way an optimizer would:

1. estimate predicate selectivity from a row sample;
2. predict the offload latency from the analytic dataflow model (with
   the estimated gains) and the fetch latency from transfer + roofline
   CPU costs;
3. execute the cheaper mode through the normal client.

Predictions are intentionally *cheap* (no full functional pass), so
they can be wrong near the crossover — the planner records both
predictions and the decision for inspection, and the tests check it
picks correctly away from the crossover.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..relational.engine import _apply
from ..relational.fpga_ops import plan_kernels
from ..relational.operators import (
    Aggregate,
    Filter,
    GroupByAggregate,
    Project,
    QueryPlan,
    Transform,
)
from .client import FarviewClient, QueryOutcome

__all__ = ["OffloadPlanner", "PlannedOutcome"]

_PS = 1_000_000_000_000

# Every selectivity estimate filters the same seeded row sample, so a
# plan is priced the same however many plans came before it.
_SAMPLE_ROWS = 1024
_SAMPLE_SEED = 0


@dataclass(frozen=True)
class PlannedOutcome:
    """The executed outcome plus the planner's reasoning."""

    outcome: QueryOutcome
    chose: str                 # "offload" or "fetch"
    predicted_offload_s: float
    predicted_fetch_s: float
    estimated_selectivity: float


class OffloadPlanner:
    """Per-query offload-or-fetch decisions for a Farview client."""

    def __init__(self, client: FarviewClient) -> None:
        self.client = client

    # -- estimation ----------------------------------------------------------

    def estimate_selectivity(self, plan: QueryPlan, table_name: str) -> float:
        """Combined selectivity of the plan's filters, from a sample."""
        table = self.client.server.table(table_name)
        n = table.n_rows
        if n == 0:
            return 1.0
        take = min(_SAMPLE_ROWS, n)
        rng = np.random.default_rng(_SAMPLE_SEED)
        picks = rng.choice(n, size=take, replace=False)
        sample = table.take(picks)
        survivors = sample
        for op in plan.operators:
            if isinstance(op, Filter):
                survivors = _apply(op, survivors)
        return max(survivors.n_rows / take, 1.0 / take / 10)

    def _result_row_bytes(self, plan: QueryPlan, table_name: str) -> int:
        table = self.client.server.table(table_name)
        schema = table.schema
        out_cols = plan.columns_needed(table.column_names)
        for op in plan.operators:
            if isinstance(op, Project):
                out_cols = op.columns
            elif isinstance(op, (Aggregate, GroupByAggregate)):
                return 8 * (
                    len(op.aggs) + (1 if isinstance(op, GroupByAggregate)
                                    else 0)
                )
        return max(1, sum(schema.type_of(c).nbytes for c in out_cols))

    def predict_offload_s(self, plan: QueryPlan, table_name: str,
                          selectivity: float) -> float:
        """Analytic offload latency with estimated gains."""
        server = self.client.server
        table = server.table(table_name)
        touched = plan.columns_needed(table.column_names)
        row_nbytes = max(
            1, sum(table.schema.type_of(c).nbytes for c in touched)
        )
        n = max(1, table.n_rows)
        kernels = plan_kernels(plan, row_nbytes)
        # Source streams at min(memory, slowest kernel) rows/s.
        rates = [server.memory_bandwidth / row_nbytes]
        rates += [spec.throughput_items_per_sec() for spec in kernels]
        # An aggregate returns one row; otherwise the estimated survivors.
        out_bytes = self._result_row_bytes(plan, table_name)
        if not plan.has_aggregation:
            out_bytes *= n * selectivity
        wire = self.client.protocol.link.bandwidth_bytes_per_sec
        stream_s = max(n / min(rates), out_bytes / wire)
        request_s = self.client.protocol.message_ps(128) / _PS
        latency = self.client.protocol.message_ps(0) / _PS
        return request_s + server.memory_latency_s + stream_s + latency

    def predict_fetch_s(self, plan: QueryPlan, table_name: str,
                        selectivity: float) -> float:
        """Analytic fetch latency: transfer overlapped with CPU scan."""
        server = self.client.server
        table = server.table(table_name)
        touched = plan.columns_needed(table.column_names)
        scan_bytes = sum(table.column(c).nbytes for c in touched)
        wire = self.client.protocol.link.bandwidth_bytes_per_sec
        transfer_s = scan_bytes / min(wire, server.memory_bandwidth)
        ops = 0.0
        rows = float(table.n_rows)
        # ``selectivity`` is the filters' combined estimate, so it
        # applies once, after the last filter; every filter is priced
        # over the rows that reach the first.
        filters = [i for i, op in enumerate(plan.operators)
                   if isinstance(op, Filter)]
        for i, op in enumerate(plan.operators):
            if isinstance(op, Filter):
                ops += op.predicate.op_count() * rows
                if i == filters[-1]:
                    rows *= selectivity
            elif isinstance(op, Transform):
                ops += op.ops_per_byte * scan_bytes / max(table.n_rows, 1) * rows
            elif isinstance(op, (Aggregate, GroupByAggregate)):
                ops += 5 * rows
        cpu = self.client.cpu
        compute_s = max(
            cpu.stream_time_s(scan_bytes),
            cpu.compute_time_s(int(ops), element_bytes=8),
        )
        request_s = self.client.protocol.message_ps(128) / _PS
        latency = self.client.protocol.message_ps(0) / _PS
        return request_s + max(transfer_s, compute_s) + latency

    # -- decision ---------------------------------------------------------------

    def query(self, plan: QueryPlan, table_name: str) -> PlannedOutcome:
        """Predict both modes, run the cheaper one."""
        selectivity = self.estimate_selectivity(plan, table_name)
        off_pred = self.predict_offload_s(plan, table_name, selectivity)
        fetch_pred = self.predict_fetch_s(plan, table_name, selectivity)
        if off_pred <= fetch_pred:
            outcome = self.client.query_offload(plan, table_name)
            chose = "offload"
        else:
            outcome = self.client.query_fetch(plan, table_name)
            chose = "fetch"
        return PlannedOutcome(
            outcome=outcome,
            chose=chose,
            predicted_offload_s=off_pred,
            predicted_fetch_s=fetch_pred,
            estimated_selectivity=selectivity,
        )
