"""The Farview smart disaggregated-memory node.

A :class:`FarviewServer` is an FPGA sitting between network and DRAM
(Figure 2 of the tutorial): it hosts columnar tables in its attached
memory and serves two request kinds:

* **READ** — stream a table's raw columns back to the client (what a
  conventional disaggregated memory would do);
* **EXECUTE** — run an offloaded operator pipeline on the data as it
  leaves DRAM and return only the result.

The server also enforces the resource budget: offload pipelines are
synthesized against the node's device, and a pipeline that does not fit
is rejected — the same constraint a real Farview deployment faces when
composing operator datapaths.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.device import ALVEO_U55C, Device, ResourceVector
from ..memory.technologies import ddr4_channel
from ..network.protocol import ProtocolModel, fpga_rdma
from ..relational.fpga_ops import plan_kernels
from ..relational.operators import QueryPlan
from ..relational.table import Table
from .offload import OffloadExecution, offload_query

__all__ = ["FarviewServer", "ReadExecution"]


@dataclass(frozen=True)
class ReadExecution:
    """Timing of a raw READ of table columns."""

    scan_bytes: int
    processing_s: float  # DRAM->network streaming time on the node


class FarviewServer:
    """A smart-memory node hosting tables and executing offloads."""

    def __init__(
        self,
        protocol: ProtocolModel | None = None,
        device: Device = ALVEO_U55C,
        n_memory_channels: int = 4,
        memory_capacity_bytes: int | None = None,
    ) -> None:
        if n_memory_channels < 1:
            raise ValueError("need at least one memory channel")
        self.protocol = protocol or fpga_rdma()
        self.device = device
        channel = ddr4_channel()
        self.n_memory_channels = n_memory_channels
        self.memory_bandwidth = n_memory_channels * channel.bandwidth_bytes_per_sec
        self.memory_latency_s = channel.latency_ps / 1e12
        self.memory_capacity = (
            memory_capacity_bytes
            if memory_capacity_bytes is not None
            else n_memory_channels * channel.capacity_bytes
        )
        self._tables: dict[str, Table] = {}
        self._used_bytes = 0

    # -- table management ----------------------------------------------------

    def store(self, name: str, table: Table) -> None:
        """Place a table in disaggregated memory."""
        if name in self._tables:
            raise ValueError(f"table {name!r} already stored")
        if self._used_bytes + table.nbytes > self.memory_capacity:
            raise MemoryError(
                f"table {name!r} ({table.nbytes} B) exceeds node capacity"
            )
        self._tables[name] = table
        self._used_bytes += table.nbytes

    def table(self, name: str) -> Table:
        """Look up a stored table."""
        if name not in self._tables:
            raise KeyError(f"no table {name!r}; have {sorted(self._tables)}")
        return self._tables[name]

    # -- request handlers ------------------------------------------------------

    def pipeline_resources(self, plan: QueryPlan, table_name: str) -> ResourceVector:
        """Fabric resources the offload pipeline for ``plan`` consumes."""
        table = self.table(table_name)
        row_nbytes = max(1, table.schema.row_nbytes)
        total = ResourceVector()
        for spec in plan_kernels(plan, row_nbytes):
            total = total + spec.resources
        return total

    def execute(self, plan: QueryPlan, table_name: str) -> OffloadExecution:
        """EXECUTE: run an offloaded pipeline over a stored table."""
        table = self.table(table_name)
        demand = self.pipeline_resources(plan, table_name)
        if not self.device.fits(demand):
            raise ResourceWarning(
                f"offload pipeline does not fit {self.device.name}: "
                f"{demand}"
            )
        return offload_query(
            plan,
            table,
            memory_bandwidth_bytes_per_sec=self.memory_bandwidth,
            memory_latency_s=self.memory_latency_s,
            protocol=self.protocol,
        )

    def read(self, table_name: str,
             columns: tuple[str, ...] | None = None) -> ReadExecution:
        """READ: stream raw columns to the network (no processing).

        The node-side time is the slower of the DRAM scan and the
        network egress, plus the memory latency.
        """
        table = self.table(table_name)
        data = table.project(columns) if columns else table
        scan_s = data.nbytes / self.memory_bandwidth
        wire_s = data.nbytes / self.protocol.link.bandwidth_bytes_per_sec
        return ReadExecution(
            scan_bytes=data.nbytes,
            processing_s=self.memory_latency_s + max(scan_s, wire_s),
        )
