"""Count-Min sketch — Scotch-style line-rate sketching.

Scotch (VLDB 2020, cited by the tutorial as the line-rate example)
generates FPGA accelerators for sketch maintenance: every arriving
tuple updates a few hashed counters, which pipelines at II=1 per row
regardless of the sketch's analytical purpose.
:class:`CountMinSketch` estimates point frequencies with one-sided
error ``<= eps * N`` at confidence ``1 - delta``; it is mergeable (a
linear sketch), keeps exact numpy state, and ships a kernel spec and
CPU cost like :mod:`repro.operators.hll`.
"""

from __future__ import annotations

import math

import numpy as np

from ..baselines.cpu import CpuModel
from ..core.clocking import FABRIC_300MHZ, ClockDomain
from ..core.device import ResourceVector
from ..core.kernel import KernelSpec

__all__ = ["CountMinSketch", "cpu_update_time_s", "sketch_kernel_spec"]


def _row_hash(values: np.ndarray, seed: int, buckets: int) -> np.ndarray:
    """Per-row 64-bit multiply-shift hash into [0, buckets)."""
    x = values.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x = (x + np.uint64(seed * 2 + 1)) * np.uint64(0x9E3779B97F4A7C15)
        x ^= x >> np.uint64(29)
        x *= np.uint64(0xBF58476D1CE4E5B9 + seed)
        x ^= x >> np.uint64(32)
    return (x % np.uint64(buckets)).astype(np.int64)


class CountMinSketch:
    """A Count-Min sketch with ``depth`` rows of ``width`` counters."""

    def __init__(self, width: int, depth: int) -> None:
        if width < 1 or depth < 1:
            raise ValueError("width and depth must be >= 1")
        self.width = width
        self.depth = depth
        self.counters = np.zeros((depth, width), dtype=np.int64)
        self.total = 0

    def add(self, values: np.ndarray) -> None:
        """Insert a batch of integer items (count 1 each)."""
        values = np.asarray(values).reshape(-1)
        if values.size == 0:
            return
        for row in range(self.depth):
            buckets = _row_hash(values, row, self.width)
            np.add.at(self.counters[row], buckets, 1)
        self.total += values.size

    def query(self, values: np.ndarray) -> np.ndarray:
        """Estimated frequencies (never underestimates)."""
        values = np.asarray(values).reshape(-1)
        estimates = np.full(values.size, np.iinfo(np.int64).max)
        for row in range(self.depth):
            buckets = _row_hash(values, row, self.width)
            estimates = np.minimum(estimates, self.counters[row][buckets])
        return estimates

    def error_bound(self) -> float:
        """The eps*N additive error bound of point queries."""
        return math.e / self.width * self.total


def sketch_kernel_spec(
    counters_per_item: int,
    counter_bytes_total: int,
    lanes: int = 8,
    clock: ClockDomain = FABRIC_300MHZ,
) -> KernelSpec:
    """A Scotch-style sketch-update kernel.

    ``lanes`` items enter per cycle (a 512-bit bus of 64-bit keys at
    line rate); for each, ``counters_per_item`` hash/update units run
    in parallel (one per sketch row / estimator bank), so the kernel
    stays II=1.  Counters live in BRAM, banked per lane so concurrent
    updates do not conflict.
    """
    if counters_per_item < 1:
        raise ValueError("need at least one update lane")
    if lanes < 1:
        raise ValueError("need at least one input lane")
    units = counters_per_item * lanes
    brams = lanes * max(1, counter_bytes_total // (36 * 1024 // 8))
    return KernelSpec(
        name=f"sketch-x{counters_per_item}x{lanes}",
        ii=1,
        depth=14,
        unroll=lanes,
        clock=clock,
        resources=ResourceVector(
            lut=3_000 * units,
            ff=4_500 * units,
            dsp=8 * units,
            bram_36k=brams,
        ),
    )


def cpu_update_time_s(
    cpu: CpuModel,
    n_items: int,
    counters_per_item: int,
    parallel: bool = True,
) -> float:
    """CPU sketch maintenance: ~10 scalar ops per counter touched,
    scatter-bound (one dependent cache access per counter)."""
    if n_items <= 0:
        return 0.0
    ops = 10 * counters_per_item * n_items
    return cpu.compute_time_s(
        ops, element_bytes=cpu.simd_bytes, parallel=parallel
    )
