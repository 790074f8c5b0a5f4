"""Clock domains: converting between cycles and simulated nanoseconds.

The event engine (:mod:`repro.core.sim`) counts abstract integer time
units that the hardware layers interpret as **picoseconds**.  Working in
picoseconds (rather than nanoseconds) keeps cycle durations of common
fabric clocks exact integers: 300 MHz -> 3334 ps would not be exact, so
we round the *period* to an integer picosecond count once at clock
construction and document the tiny (<0.03%) frequency error.

Typical FPGA clocks used throughout the reproduction:

* ``FABRIC_300MHZ`` — the general kernel clock assumed by the tutorial's
  HLS examples (Alveo kernels commonly close timing at 200-400 MHz).
* ``HBM_450MHZ`` — the HBM AXI channel clock on Alveo U280/U55C.
* ``NETWORK_322MHZ`` — the 100 GbE MAC user clock (512-bit datapath).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "ClockDomain",
    "FABRIC_200MHZ",
    "FABRIC_300MHZ",
    "FABRIC_400MHZ",
    "HBM_450MHZ",
    "NETWORK_322MHZ",
    "PS_PER_NS",
    "PS_PER_US",
    "PS_PER_MS",
    "PS_PER_S",
]

PS_PER_NS = 1_000
PS_PER_US = 1_000_000
PS_PER_MS = 1_000_000_000
PS_PER_S = 1_000_000_000_000


@dataclass(frozen=True, slots=True)
class ClockDomain:
    """A clock with an integer period in picoseconds.

    Parameters
    ----------
    name:
        Human-readable identifier used in reports.
    period_ps:
        Clock period in picoseconds (must be positive).
    """

    name: str
    period_ps: int

    def __post_init__(self) -> None:
        if self.period_ps <= 0:
            raise ValueError(f"clock period must be positive, got {self.period_ps}")

    @classmethod
    def from_mhz(cls, name: str, freq_mhz: float) -> "ClockDomain":
        """Build a clock from a frequency in MHz (period rounded to ps)."""
        if freq_mhz <= 0:
            raise ValueError(f"frequency must be positive, got {freq_mhz}")
        period_ps = round(PS_PER_S / (freq_mhz * 1e6))
        return cls(name, period_ps)

    @property
    def freq_hz(self) -> float:
        """Effective frequency in Hz after period rounding."""
        return PS_PER_S / self.period_ps

    def cycles_to_ps(self, cycles: int | float) -> int:
        """Duration of ``cycles`` clock cycles, in picoseconds."""
        return round(cycles * self.period_ps)

    def cycles_to_seconds(self, cycles: int | float) -> float:
        """Duration of ``cycles`` clock cycles, in seconds."""
        return cycles * self.period_ps / PS_PER_S


FABRIC_200MHZ = ClockDomain.from_mhz("fabric-200", 200.0)
FABRIC_300MHZ = ClockDomain.from_mhz("fabric-300", 300.0)
FABRIC_400MHZ = ClockDomain.from_mhz("fabric-400", 400.0)
HBM_450MHZ = ClockDomain.from_mhz("hbm-450", 450.0)
NETWORK_322MHZ = ClockDomain.from_mhz("net-322", 322.265625)
