"""Compaction offload study: foreground writes vs background merges.

X-Engine's FAST'20 result: during bursts, CPU compaction steals cores
from foreground transactions, the level-0 backlog grows, and writes
stall; moving compaction to an FPGA merge tree (line-rate k-way merge)
keeps foreground throughput flat.

The model here is a time-stepped simulation driven by a *real*
:class:`~repro.lsm.store.LsmStore` trace:

1. replay a write workload through the store, recording when flushes
   and compactions happen and how many bytes each moves;
2. re-run the timeline under a compaction *executor* — CPU (shares
   cores with the foreground) or FPGA (independent) — with a bounded
   level-0 backlog: when compaction falls behind, the foreground
   stalls, exactly the RocksDB/X-Engine write-stall mechanism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..baselines.cpu import CpuModel, xeon_server
from ..core.clocking import FABRIC_300MHZ
from ..memory.technologies import ddr4_channel

__all__ = [
    "CompactionExecutor",
    "OffloadStudyResult",
    "cpu_compaction_bandwidth",
    "fpga_compaction_bandwidth",
    "run_offload_study",
]


def cpu_compaction_bandwidth(cpu: CpuModel, cores: int) -> float:
    """Bytes/s a CPU compaction thread pool sustains.

    Merging is ~3 ops/byte (compare, select, copy) plus a read+write
    DRAM pass; both scale with the dedicated cores.
    """
    if cores < 0:
        raise ValueError("cores must be >= 0")
    if cores == 0:
        return 0.0
    fraction = cores / cpu.cores
    compute = cpu.freq_hz * cpu.ipc * cores / 3.0  # 3 ops per byte
    memory = cpu.dram_bandwidth * fraction / 2.0   # read + write
    return min(compute, memory)


def fpga_compaction_bandwidth(n_merge_trees: int) -> float:
    """Bytes/s of the FPGA merge-tree accelerator.

    Each merge tree emits 64 B per cycle at 300 MHz (19.2 GB/s) and is
    bounded by its DDR channel pair (read one side, write the other).
    """
    if n_merge_trees < 1:
        raise ValueError("need at least one merge tree")
    per_tree_compute = 64 * FABRIC_300MHZ.freq_hz
    per_tree_memory = ddr4_channel().bandwidth_bytes_per_sec / 2.0
    return n_merge_trees * min(per_tree_compute, per_tree_memory)


@dataclass(frozen=True)
class CompactionExecutor:
    """Where compactions run and how fast."""

    name: str
    bandwidth_bytes_per_sec: float
    foreground_cores_lost: int  # cores the foreground gives up

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_sec <= 0:
            raise ValueError("bandwidth must be positive")
        if self.foreground_cores_lost < 0:
            raise ValueError("cores lost must be >= 0")


@dataclass(frozen=True)
class OffloadStudyResult:
    """Outcome of one executor's run over the workload timeline."""

    executor: str
    total_time_s: float
    stall_time_s: float
    sustained_writes_per_sec: float
    write_amplification: float

    @property
    def stall_fraction(self) -> float:
        return self.stall_time_s / self.total_time_s if self.total_time_s else 0.0


def run_offload_study(
    n_writes: int,
    write_amplification: float,
    executor: CompactionExecutor,
    cpu: CpuModel | None = None,
    entry_bytes: int = 64,
    foreground_ops_per_write: int = 2_000,
    backlog_limit_bytes: int = 64 << 20,
    step_writes: int = 10_000,
) -> OffloadStudyResult:
    """Replay ``n_writes`` against an executor; returns the timeline.

    The foreground ingests writes at the rate its remaining cores
    allow; every written byte creates ``write_amplification`` bytes of
    compaction debt.  Debt drains at the executor's bandwidth; if it
    exceeds ``backlog_limit_bytes`` the foreground stalls until the
    backlog halves (the classic stall/resume hysteresis).
    """
    if n_writes < 0:
        raise ValueError("n_writes must be >= 0")
    if write_amplification < 0:
        raise ValueError("write amplification must be >= 0")
    cpu = cpu or xeon_server()
    foreground_cores = max(1, cpu.cores - executor.foreground_cores_lost)
    write_rate = (
        foreground_cores * cpu.freq_hz * cpu.ipc / foreground_ops_per_write
    )
    drain_rate = executor.bandwidth_bytes_per_sec

    time_s = 0.0
    stall_s = 0.0
    backlog = 0.0
    remaining = n_writes
    while remaining > 0:
        batch = min(step_writes, remaining)
        step_time = batch / write_rate
        backlog += batch * entry_bytes * write_amplification
        backlog = max(0.0, backlog - drain_rate * step_time)
        time_s += step_time
        if backlog > backlog_limit_bytes:
            # Stall: foreground stops, compaction drains to half limit.
            drain_target = backlog_limit_bytes / 2.0
            stall = (backlog - drain_target) / drain_rate
            time_s += stall
            stall_s += stall
            backlog = drain_target
        remaining -= batch
    # Final drain is background work; it does not gate the foreground.
    return OffloadStudyResult(
        executor=executor.name,
        total_time_s=time_s,
        stall_time_s=stall_s,
        sustained_writes_per_sec=n_writes / time_s if time_s else 0.0,
        write_amplification=write_amplification,
    )
