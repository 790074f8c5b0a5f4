"""Memory subsystem models: HBM2, DDR4, host-over-PCIe.

These models substitute for the physical memory systems of the Alveo
cards (see DESIGN.md §1).  They expose exactly the knobs the tutorial's
use-case arguments turn on: per-channel bandwidth, first-word latency,
burst granularity, random-access efficiency, and channel-level
parallelism (:class:`~repro.memory.banked.BankedMemory`).
"""

from .banked import Allocation, BankedMemory
from .model import AccessPattern, MemoryModel, MemoryPort
from .technologies import ddr4_channel, hbm2_channel, host_over_pcie3

__all__ = [
    "AccessPattern",
    "Allocation",
    "BankedMemory",
    "MemoryModel",
    "MemoryPort",
    "ddr4_channel",
    "hbm2_channel",
    "host_over_pcie3",
]
