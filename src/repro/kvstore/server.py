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

A batch's timing depends only on its size and on the bucket probes its
execution made, so each server prices it with ``price(n_ops, probes)``
and ``serve(ops)`` is :func:`run_ops` plus ``price``.  A caller that
prices one batch on several servers (E17) runs the operations once and
calls ``price`` on each.
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

__all__ = [
    "KvOutcome", "KvPrice", "SmartNicKvServer", "SoftwareKvServer",
    "run_ops",
]

_REQUEST_BYTES = 40   # opcode + key + metadata
_PS = 1_000_000_000_000


@dataclass(frozen=True)
class KvPrice:
    """Timing of a batch of KV operations."""

    batch_time_s: float
    ops_per_sec: float
    op_latency_s: float


@dataclass(frozen=True)
class KvOutcome(KvPrice):
    """Results + timing for a batch of KV operations."""

    values: list[int | None]


def run_ops(table: HashTable,
            ops: list[tuple[str, int, int]]) -> list[int | None]:
    """Apply ``(op, key, value)`` operations to ``table`` in order.

    A get returns the value or None, a put returns the value written
    and a delete returns 1 when the key existed, else None.
    """
    results: list[int | None] = []
    for op, key, value in ops:
        if op == "get":
            results.append(table.get(key))
        elif op == "put":
            table.put(key, value)
            results.append(value)
        elif op == "delete":
            results.append(1 if table.delete(key) else None)
        else:
            raise ValueError(f"unknown op {op!r}")
    return results


class _KvServerBase:
    """Shared serving: execute a batch on the table, then price it."""

    def __init__(self, table: HashTable) -> None:
        self.table = table

    def serve(self, ops: list[tuple[str, int, int]]) -> KvOutcome:
        """Execute a batch on the table, then price it with ``price``."""
        before = self.table.bucket_probes
        values = run_ops(self.table, ops)
        timing = self.price(len(ops), self.table.bucket_probes - before)
        return KvOutcome(
            batch_time_s=timing.batch_time_s,
            ops_per_sec=timing.ops_per_sec,
            op_latency_s=timing.op_latency_s,
            values=values,
        )


class SmartNicKvServer(_KvServerBase):
    """The FPGA NIC server: network in, memory probe, network out."""

    def __init__(
        self,
        table: HashTable,
        protocol: ProtocolModel | None = None,
        memory: MemoryModel | None = None,
        *,
        n_memory_channels: int,
        value_bytes: int,
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

    def price(self, n_ops: int, probes: int) -> KvPrice:
        """Time ``n_ops`` pipelined operations that read ``probes``
        buckets: network in, memory probe, network out."""
        if n_ops == 0:
            return KvPrice(0.0, 0.0, 0.0)
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
        batch_ps = max(n_ops * wire_per_op, memory_ps) + pipeline_ps
        # Latency of one op: request + probe + response.
        latency_ps = (
            self.protocol.message_ps(_REQUEST_BYTES)
            + self.memory.random_access_time_ps(self._bucket_bytes())
            + pipeline_ps
            + self.protocol.message_ps(self.value_bytes)
        )
        return KvPrice(
            batch_time_s=batch_ps / _PS,
            ops_per_sec=n_ops * _PS / batch_ps,
            op_latency_s=latency_ps / _PS,
        )


class SoftwareKvServer(_KvServerBase):
    """A conventional server: kernel TCP + CPU probing + host DRAM."""

    def __init__(
        self,
        table: HashTable,
        protocol: ProtocolModel | None = None,
        cpu: CpuModel | None = None,
        *,
        value_bytes: int,
    ) -> None:
        super().__init__(table)
        if value_bytes < 1:
            raise ValueError("value_bytes must be >= 1")
        self.protocol = protocol or kernel_tcp()
        self.cpu = cpu or xeon_server()
        self.value_bytes = value_bytes

    def price(self, n_ops: int, probes: int) -> KvPrice:
        """Time ``n_ops`` operations that read ``probes`` buckets; the
        requests cross the kernel stack."""
        if n_ops == 0:
            return KvPrice(0.0, 0.0, 0.0)
        bucket_bytes = self.table.slots_per_bucket * 16 + self.value_bytes
        # Per-op network processing dominates a software KV server.
        stack_s = n_ops * (
            self.protocol.send_overhead_ps + self.protocol.recv_overhead_ps
        ) / _PS / self.cpu.cores  # cores handle connections in parallel
        probe_s = self.cpu.random_access_time_s(
            probes, bucket_bytes, working_set_bytes=self.table.nbytes
        )
        compute_s = self.cpu.compute_time_s(
            60 * n_ops, element_bytes=self.cpu.simd_bytes
        )
        batch_s = max(stack_s, probe_s + compute_s)
        latency_s = (
            self.protocol.message_ps(_REQUEST_BYTES) / _PS
            + self.cpu.dram_latency_s * 2
            + self.protocol.message_ps(self.value_bytes) / _PS
        )
        return KvPrice(
            batch_time_s=batch_s,
            ops_per_sec=n_ops / batch_s,
            op_latency_s=latency_s,
        )
