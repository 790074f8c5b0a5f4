"""The database-engine side of Farview: offload vs fetch-all clients.

:class:`FarviewClient` issues queries against a
:class:`~repro.farview.server.FarviewServer` in two modes:

* :meth:`query_offload` — ship the plan, receive only results
  (Farview's mode);
* :meth:`query_fetch` — READ the raw columns the plan touches over the
  network and run the plan on the local CPU (the conventional
  disaggregated-memory baseline, given a columnar store that can
  prune).

Both modes return a :class:`QueryOutcome` with the same functional
result (tested) and a latency breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines.cpu import CpuModel, xeon_server
from ..core.dataflow import ThroughputReport
from ..relational.engine import cpu_cost_s, execute
from ..relational.operators import QueryPlan
from ..relational.table import Table
from .server import FarviewServer

__all__ = ["FarviewClient", "QueryOutcome"]

_PS_PER_S = 1_000_000_000_000
_REQUEST_BYTES = 128  # serialized plan / read request


@dataclass(frozen=True)
class QueryOutcome:
    """One query's result and cost accounting.

    ``report`` is the node's solved dataflow region for an offloaded
    query, ``None`` for a fetch.
    """

    result: Table
    latency_s: float
    bytes_over_network: int
    mode: str
    breakdown: dict[str, float]
    report: ThroughputReport | None = None


class FarviewClient:
    """A query client talking to one Farview memory node."""

    def __init__(self, server: FarviewServer,
                 cpu: CpuModel | None = None) -> None:
        self.server = server
        self.cpu = cpu or xeon_server()
        self.protocol = server.protocol

    def _request_s(self) -> float:
        return self.protocol.message_ps(_REQUEST_BYTES) / _PS_PER_S

    def query_offload(self, plan: QueryPlan, table_name: str) -> QueryOutcome:
        """Offloaded execution: plan goes to the node, results come back.

        Latency = request + node pipeline (which already streams results
        into the network as they are produced) + the final response
        message latency.
        """
        execution = self.server.execute(plan, table_name)
        request_s = self._request_s()
        response_latency_s = self.protocol.message_ps(0) / _PS_PER_S
        return QueryOutcome(
            result=execution.result,
            latency_s=request_s + execution.processing_s + response_latency_s,
            bytes_over_network=_REQUEST_BYTES + execution.result_bytes,
            mode="offload",
            breakdown={
                "request_s": request_s,
                "node_processing_s": execution.processing_s,
                "response_latency_s": response_latency_s,
                "scan_bytes": float(execution.scan_bytes),
            },
            report=execution.report,
        )

    def query_fetch(self, plan: QueryPlan, table_name: str) -> QueryOutcome:
        """Conventional execution: fetch raw data, process locally.

        Only the columns the plan touches cross the network.  The
        transfer and the local CPU work are overlapped (the client
        processes arriving blocks), so latency charges their max — a
        deliberately generous baseline.
        """
        table = self.server.table(table_name)
        columns = plan.columns_needed(table.column_names)
        read = self.server.read(table_name, columns)
        transfer_s = read.processing_s + self.protocol.message_ps(0) / _PS_PER_S
        fetched = table.project(columns)
        compute_s = cpu_cost_s(plan, fetched, self.cpu)
        result = execute(plan, fetched)
        request_s = self._request_s()
        return QueryOutcome(
            result=result,
            latency_s=request_s + max(transfer_s, compute_s),
            bytes_over_network=_REQUEST_BYTES + read.scan_bytes,
            mode="fetch-columns",
            breakdown={
                "request_s": request_s,
                "transfer_s": transfer_s,
                "cpu_s": compute_s,
                "fetched_bytes": float(read.scan_bytes),
            },
        )
