"""CPU baseline cost models (the other side of every FPGA comparison)."""

from .cpu import CpuModel, xeon_server

__all__ = ["CpuModel", "xeon_server"]
