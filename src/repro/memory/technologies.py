"""Concrete memory technologies with datasheet-grade parameters.

Factory functions return :class:`~repro.memory.model.MemoryModel`
instances for the memories an Alveo-class deployment touches.  Numbers
are public-datasheet/measurement-literature values; they set the
*ratios* (HBM channel vs DDR vs PCIe) that the tutorial's use-case
arguments depend on:

* HBM2 pseudo-channel — ~14.4 GB/s each, 32 of them, the memory-level
  parallelism MicroRec and FANNS exploit;
* DDR4-2400 channel — 19.2 GB/s, higher capacity, fewer channels;
* host DRAM over PCIe 3.0 x16 — what a plain CPU-attached accelerator
  must cross, with microsecond latency.
"""

from __future__ import annotations

from .model import MemoryModel

__all__ = ["ddr4_channel", "hbm2_channel", "host_over_pcie3"]

_GIB = 1024 ** 3
_MIB = 1024 ** 2


def hbm2_channel(capacity_bytes: int = 256 * _MIB) -> MemoryModel:
    """One HBM2 pseudo-channel (Alveo U280/U55C have 32).

    ~14.4 GB/s peak, ~110 ns loaded latency, 32 B minimum granule,
    ~35% efficiency under pointer-chasing random access (bank/row
    conflicts) — matching published HBM benchmarking studies.
    """
    return MemoryModel(
        name="hbm2-pc",
        capacity_bytes=capacity_bytes,
        latency_ps=110_000,
        bandwidth_bytes_per_sec=14.375e9,
        min_burst_bytes=32,
        random_efficiency=0.35,
        row_cycle_ps=47_000,  # HBM2 tRC: floor per random row hit
    )


def ddr4_channel(capacity_bytes: int = 16 * _GIB) -> MemoryModel:
    """One 64-bit DDR4-2400 channel: 19.2 GB/s, ~85 ns, 64 B bursts."""
    return MemoryModel(
        name="ddr4",
        capacity_bytes=capacity_bytes,
        latency_ps=85_000,
        bandwidth_bytes_per_sec=19.2e9,
        min_burst_bytes=64,
        random_efficiency=0.25,
        row_cycle_ps=45_000,  # DDR4 tRC
    )


def host_over_pcie3(capacity_bytes: int = 256 * _GIB) -> MemoryModel:
    """Host DRAM reached over PCIe 3.0 x16: ~13 GB/s effective, ~1 us."""
    return MemoryModel(
        name="host-pcie3",
        capacity_bytes=capacity_bytes,
        latency_ps=1_000_000,
        bandwidth_bytes_per_sec=13e9,
        min_burst_bytes=256,
        random_efficiency=0.15,
    )

