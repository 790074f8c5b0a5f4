"""Analytic CPU cost model used by every CPU baseline.

The tutorial's comparisons are FPGA-vs-CPU, so the reproduction needs a
CPU on the other side of each experiment.  We use a roofline-style
model of a dual-socket server:

* **streaming** work is ``max(compute time, DRAM bandwidth time)``;
* **compute** is ``ops / (cores x freq x lanes x ipc)`` with SIMD lane
  counts per element type;
* **dependent random access** costs a DRAM (or cache) latency per
  access, divided by the achievable memory-level parallelism;
* a last-level-cache capacity check switches between DRAM and LLC
  costs, which is what makes small embedding tables cheap on CPUs too.

The defaults (:func:`xeon_server`) describe a c. 2021 two-socket Xeon —
the class of machine MicroRec and Farview benchmark against.  All
returned times are in **seconds** (CPU baselines do not run inside the
picosecond event simulator; they are endpoints of analytic
comparisons).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["CpuModel", "xeon_server"]


@dataclass(frozen=True, slots=True)
class CpuModel:
    """A roofline CPU model.

    Parameters
    ----------
    name:
        Identifier for reports.
    cores:
        Physical cores usable by the workload.
    freq_hz:
        Sustained clock frequency.
    simd_bytes:
        SIMD register width in bytes (32 = AVX2, 64 = AVX-512).
    ipc:
        Sustained instructions (SIMD ops) per cycle per core.
    dram_bandwidth:
        Aggregate DRAM bandwidth, bytes/s.
    dram_latency_s:
        Loaded DRAM access latency, seconds.
    llc_bytes:
        Last-level cache capacity.
    llc_latency_s:
        LLC hit latency, seconds.
    mlp:
        Memory-level parallelism: outstanding misses one core sustains.
    """

    name: str
    cores: int = 32
    freq_hz: float = 3.0e9
    simd_bytes: int = 32
    ipc: float = 2.0
    dram_bandwidth: float = 160e9
    dram_latency_s: float = 90e-9
    llc_bytes: int = 48 * 1024 * 1024
    llc_latency_s: float = 20e-9
    mlp: float = 10.0

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if min(self.freq_hz, self.dram_bandwidth, self.ipc, self.mlp) <= 0:
            raise ValueError("rates must be positive")
        if min(self.dram_latency_s, self.llc_latency_s) < 0:
            raise ValueError("latencies must be >= 0")

    # -- compute -----------------------------------------------------------

    def simd_lanes(self, element_bytes: int) -> int:
        """SIMD lanes for an element size (at least 1)."""
        if element_bytes < 1:
            raise ValueError("element size must be >= 1")
        return max(1, self.simd_bytes // element_bytes)

    def compute_time_s(
        self, n_ops: int, element_bytes: int, parallel: bool = True
    ) -> float:
        """Time for ``n_ops`` element operations, SIMD-vectorised.

        ``parallel=False`` restricts to one core (latency-bound paths
        such as a single recommendation inference).
        """
        if n_ops <= 0:
            return 0.0
        cores = self.cores if parallel else 1
        rate = cores * self.freq_hz * self.ipc * self.simd_lanes(element_bytes)
        return n_ops / rate

    # -- memory ------------------------------------------------------------

    def stream_time_s(self, nbytes: int, parallel: bool = True) -> float:
        """Time to stream ``nbytes`` through the cores (bandwidth-bound)."""
        if nbytes <= 0:
            return 0.0
        bandwidth = self.dram_bandwidth if parallel else self.dram_bandwidth / 4
        return nbytes / bandwidth

    def scan_time_s(
        self,
        nbytes: int,
        ops_per_byte: float,
        element_bytes: int = 4,
        parallel: bool = True,
    ) -> float:
        """Roofline for a scan: max of bandwidth time and compute time."""
        if nbytes <= 0:
            return 0.0
        return max(
            self.stream_time_s(nbytes, parallel),
            self.compute_time_s(
                math.ceil(nbytes * ops_per_byte), element_bytes, parallel
            ),
        )

    def random_access_time_s(
        self,
        n_accesses: int,
        bytes_each: int,
        working_set_bytes: int,
        parallel: bool = True,
    ) -> float:
        """Time for ``n_accesses`` independent random reads.

        Each access costs one latency (LLC if the working set fits,
        DRAM otherwise), amortised by memory-level parallelism across
        ``cores`` when ``parallel``; wide reads add line transfers.
        """
        if n_accesses <= 0 or bytes_each <= 0:
            return 0.0
        in_llc = working_set_bytes <= self.llc_bytes
        latency = self.llc_latency_s if in_llc else self.dram_latency_s
        lines = math.ceil(bytes_each / 64)
        effective_mlp = self.mlp * (self.cores if parallel else 1)
        latency_time = n_accesses * lines * latency / effective_mlp
        bandwidth_time = (
            0.0 if in_llc else self.stream_time_s(n_accesses * lines * 64, parallel)
        )
        return max(latency_time, bandwidth_time)

    # -- composite helpers ---------------------------------------------------

    def gemv_time_s(self, rows: int, cols: int, element_bytes: int = 4,
                    parallel: bool = False) -> float:
        """Dense matrix-vector multiply (the FC layers of MicroRec's DNN).

        Counts one multiply-accumulate per element; weights stream from
        wherever they live, so the roofline also applies.
        """
        n_ops = rows * cols
        weight_bytes = n_ops * element_bytes
        return max(
            self.compute_time_s(n_ops, element_bytes, parallel),
            0.0 if weight_bytes <= self.llc_bytes
            else self.stream_time_s(weight_bytes, parallel),
        )


def xeon_server() -> CpuModel:
    """A two-socket, 32-core data-center server (the papers' baseline)."""
    return CpuModel(name="xeon-2s-32c")

