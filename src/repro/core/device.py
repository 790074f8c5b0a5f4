"""FPGA device catalog and resource accounting.

The tutorial's use cases target AMD/Xilinx Alveo data-center cards
(U250, U280, U55C).  Accelerator designs in this reproduction declare
the resources they consume as a :class:`ResourceVector`; a
:class:`Device` checks feasibility and reports utilization, exactly the
role the place-and-route resource report plays for a real bitstream.

Catalog numbers are the public datasheet values (available logic after
shell overhead is handled via ``usable_fraction``, defaulting to the
~80% a typical Vitis shell leaves for user kernels).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

__all__ = [
    "Device",
    "ResourceVector",
    "ALVEO_U250",
    "ALVEO_U280",
    "ALVEO_U55C",
    "DEVICE_CATALOG",
]


@dataclass(frozen=True, slots=True)
class ResourceVector:
    """A bundle of FPGA fabric resources.

    Units: ``lut``/``ff`` in individual cells, ``bram_36k`` in RAMB36
    blocks, ``uram`` in URAM288 blocks, ``dsp`` in DSP48/DSP58 slices,
    ``hbm_channels`` in HBM pseudo-channels.
    """

    lut: int = 0
    ff: int = 0
    bram_36k: int = 0
    uram: int = 0
    dsp: int = 0
    hbm_channels: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"resource {f.name} must be >= 0")

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            **{f.name: getattr(self, f.name) + getattr(other, f.name)
               for f in fields(self)}
        )

    def __mul__(self, k: int) -> "ResourceVector":
        if k < 0:
            raise ValueError(f"resource multiplier must be >= 0, got {k}")
        return ResourceVector(
            **{f.name: getattr(self, f.name) * k for f in fields(self)}
        )

    __rmul__ = __mul__

    def fits_in(self, budget: "ResourceVector") -> bool:
        """True if every component is within ``budget``."""
        return all(
            getattr(self, f.name) <= getattr(budget, f.name) for f in fields(self)
        )

    def utilization(self, budget: "ResourceVector") -> dict[str, float]:
        """Per-resource utilization fractions against ``budget``.

        Resources with a zero budget and zero demand report 0.0;
        demanding a resource the budget lacks reports ``inf``.
        """
        result: dict[str, float] = {}
        for f in fields(self):
            demand = getattr(self, f.name)
            avail = getattr(budget, f.name)
            if avail == 0:
                result[f.name] = 0.0 if demand == 0 else float("inf")
            else:
                result[f.name] = demand / avail
        return result


@dataclass(frozen=True, slots=True)
class Device:
    """An FPGA card: fabric resources plus its memory system parameters.

    ``usable_fraction`` models the shell (PCIe/DMA/network) overhead; the
    feasibility check compares against ``budget`` (resources scaled by
    that fraction, HBM channels excepted — those are hard-partitioned).
    """

    name: str
    resources: ResourceVector
    hbm_capacity_bytes: int = 0
    hbm_channel_bandwidth: float = 0.0  # bytes/s per pseudo-channel
    ddr_channels: int = 0
    ddr_channel_bandwidth: float = 0.0  # bytes/s per DDR4 channel
    ddr_capacity_bytes: int = 0
    bram_bytes: int = 0
    uram_bytes: int = 0
    usable_fraction: float = 0.8
    notes: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.usable_fraction <= 1.0:
            raise ValueError("usable_fraction must be in (0, 1]")

    @property
    def budget(self) -> ResourceVector:
        """Resources actually available to user kernels."""
        r = self.resources
        return ResourceVector(
            lut=int(r.lut * self.usable_fraction),
            ff=int(r.ff * self.usable_fraction),
            bram_36k=int(r.bram_36k * self.usable_fraction),
            uram=int(r.uram * self.usable_fraction),
            dsp=int(r.dsp * self.usable_fraction),
            hbm_channels=r.hbm_channels,
        )

    @property
    def onchip_sram_bytes(self) -> int:
        """Total on-chip SRAM (BRAM + URAM) in bytes."""
        return self.bram_bytes + self.uram_bytes

    def fits(self, demand: ResourceVector) -> bool:
        """True if ``demand`` fits the user-kernel budget."""
        return demand.fits_in(self.budget)

    def utilization_report(self, demand: ResourceVector) -> dict[str, float]:
        """Utilization of ``demand`` against the user-kernel budget."""
        return demand.utilization(self.budget)


_GIB = 1024 ** 3

ALVEO_U250 = Device(
    name="Alveo U250",
    resources=ResourceVector(
        lut=1_728_000, ff=3_456_000, bram_36k=2_688, uram=1_280, dsp=12_288,
        hbm_channels=0,
    ),
    ddr_channels=4,
    ddr_channel_bandwidth=19_200_000_000,  # DDR4-2400, 64-bit
    ddr_capacity_bytes=64 * _GIB,
    bram_bytes=2_688 * 36 * 1024 // 8,
    uram_bytes=1_280 * 288 * 1024 // 8,
    notes="Largest fabric, DDR4-only (no HBM).",
)

ALVEO_U280 = Device(
    name="Alveo U280",
    resources=ResourceVector(
        lut=1_304_000, ff=2_607_000, bram_36k=2_016, uram=960, dsp=9_024,
        hbm_channels=32,
    ),
    hbm_capacity_bytes=8 * _GIB,
    hbm_channel_bandwidth=14_375_000_000,  # 460 GB/s aggregate / 32 channels
    ddr_channels=2,
    ddr_channel_bandwidth=19_200_000_000,
    ddr_capacity_bytes=32 * _GIB,
    bram_bytes=2_016 * 36 * 1024 // 8,
    uram_bytes=960 * 288 * 1024 // 8,
    notes="HBM2 (8 GiB, 32 pseudo-channels) + DDR4; MicroRec's board.",
)

ALVEO_U55C = Device(
    name="Alveo U55C",
    resources=ResourceVector(
        lut=1_304_000, ff=2_607_000, bram_36k=2_016, uram=960, dsp=9_024,
        hbm_channels=32,
    ),
    hbm_capacity_bytes=16 * _GIB,
    hbm_channel_bandwidth=14_375_000_000,
    ddr_channels=0,
    bram_bytes=2_016 * 36 * 1024 // 8,
    uram_bytes=960 * 288 * 1024 // 8,
    notes="HBM2 (16 GiB) only, dual QSFP28; the HACC cluster card (FANNS).",
)

DEVICE_CATALOG: dict[str, Device] = {
    "u250": ALVEO_U250,
    "u280": ALVEO_U280,
    "u55c": ALVEO_U55C,
}
