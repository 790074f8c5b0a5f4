"""KV-Direct-style smart-NIC key-value serving vs a software server.

KV-Direct (SOSP'17, cited in the paper's introduction) puts the KV
processing on an FPGA NIC: requests never touch the host CPU; the NIC
pipeline hashes, probes host memory over DMA (or on-board DRAM), and
replies — throughput becomes a memory/network question instead of a
cores question.

Two servers share the functional :class:`~repro.kvstore.hashtable.HashTable`:

* :class:`SmartNicKvServer` — NIC datapath; per-op cost is bounded by
  the network message rate and the memory's batched random-read rate;
* :class:`SoftwareKvServer` — kernel TCP per request batch + CPU hash
  probing + host DRAM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..baselines.cpu import CpuModel, xeon_server
from ..core.clocking import FABRIC_300MHZ
from ..memory.model import MemoryModel
from ..memory.technologies import ddr4_channel
from ..network.protocol import ProtocolModel, fpga_rdma, kernel_tcp
from .hashtable import HashTable

__all__ = ["KvOutcome", "SmartNicKvServer", "SoftwareKvServer"]

_REQUEST_BYTES = 40   # opcode + key + metadata
_PS = 1_000_000_000_000


@dataclass(frozen=True)
class KvOutcome:
    """Results + timing for a batch of KV operations."""

    values: list[int | None]
    batch_time_s: float
    ops_per_sec: float
    op_latency_s: float


class _KvServerBase:
    """Shared functional request execution."""

    def __init__(self, table: HashTable) -> None:
        self.table = table

    def _execute(self, ops: list[tuple[str, int, int]]) -> list[int | None]:
        results: list[int | None] = []
        for op, key, value in ops:
            if op == "get":
                results.append(self.table.get(key))
            elif op == "put":
                self.table.put(key, value)
                results.append(value)
            elif op == "delete":
                results.append(1 if self.table.delete(key) else None)
            else:
                raise ValueError(f"unknown op {op!r}")
        return results


class SmartNicKvServer(_KvServerBase):
    """The FPGA NIC server: network in, memory probe, network out."""

    def __init__(
        self,
        table: HashTable,
        protocol: ProtocolModel | None = None,
        memory: MemoryModel | None = None,
        n_memory_channels: int = 4,
        value_bytes: int = 64,
    ) -> None:
        super().__init__(table)
        if n_memory_channels < 1:
            raise ValueError("need at least one memory channel")
        if value_bytes < 1:
            raise ValueError("value_bytes must be >= 1")
        self.protocol = protocol or fpga_rdma()
        self.memory = memory or ddr4_channel()
        self.n_memory_channels = n_memory_channels
        self.value_bytes = value_bytes

    def _bucket_bytes(self) -> int:
        return self.table.slots_per_bucket * 16 + self.value_bytes

    def serve(self, ops: list[tuple[str, int, int]]) -> KvOutcome:
        """Execute a pipelined batch of operations."""
        before = self.table.bucket_probes
        values = self._execute(ops)
        probes = self.table.bucket_probes - before
        n = len(ops)
        if n == 0:
            return KvOutcome(values, 0.0, 0.0, 0.0)
        # Throughput: the slower of network message rate and batched
        # random memory reads spread over the channels.
        wire_per_op = max(
            self.protocol.link.serialization_ps(_REQUEST_BYTES),
            self.protocol.link.serialization_ps(self.value_bytes),
        )
        per_channel = math.ceil(probes / self.n_memory_channels)
        memory_ps = self.memory.batch_random_time_ps(
            per_channel, self._bucket_bytes()
        )
        pipeline_ps = FABRIC_300MHZ.cycles_to_ps(20)  # hash + FSM depth
        batch_ps = max(n * wire_per_op, memory_ps) + pipeline_ps
        # Latency of one op: request + probe + response.
        latency_ps = (
            self.protocol.message_ps(_REQUEST_BYTES)
            + self.memory.random_access_time_ps(self._bucket_bytes())
            + pipeline_ps
            + self.protocol.message_ps(self.value_bytes)
        )
        return KvOutcome(
            values=values,
            batch_time_s=batch_ps / _PS,
            ops_per_sec=n * _PS / batch_ps,
            op_latency_s=latency_ps / _PS,
        )


class SoftwareKvServer(_KvServerBase):
    """A conventional server: kernel TCP + CPU probing + host DRAM."""

    def __init__(
        self,
        table: HashTable,
        protocol: ProtocolModel | None = None,
        cpu: CpuModel | None = None,
        value_bytes: int = 64,
    ) -> None:
        super().__init__(table)
        if value_bytes < 1:
            raise ValueError("value_bytes must be >= 1")
        self.protocol = protocol or kernel_tcp()
        self.cpu = cpu or xeon_server()
        self.value_bytes = value_bytes

    def serve(self, ops: list[tuple[str, int, int]]) -> KvOutcome:
        """Execute a batch; requests cross the kernel stack."""
        before = self.table.bucket_probes
        values = self._execute(ops)
        probes = self.table.bucket_probes - before
        n = len(ops)
        if n == 0:
            return KvOutcome(values, 0.0, 0.0, 0.0)
        bucket_bytes = self.table.slots_per_bucket * 16 + self.value_bytes
        # Per-op network processing dominates a software KV server.
        stack_s = n * (
            self.protocol.send_overhead_ps + self.protocol.recv_overhead_ps
        ) / _PS / self.cpu.cores  # cores handle connections in parallel
        probe_s = self.cpu.random_access_time_s(
            probes, bucket_bytes, working_set_bytes=self.table.nbytes
        )
        compute_s = self.cpu.compute_time_s(
            60 * n, element_bytes=self.cpu.simd_bytes
        )
        batch_s = max(stack_s, probe_s + compute_s)
        latency_s = (
            self.protocol.message_ps(_REQUEST_BYTES) / _PS
            + self.cpu.dram_latency_s * 2
            + self.protocol.message_ps(self.value_bytes) / _PS
        )
        return KvOutcome(
            values=values,
            batch_time_s=batch_s,
            ops_per_sec=n / batch_s,
            op_latency_s=latency_s,
        )
