"""HyperLogLog cardinality sketches — the FPL'20 operator example.

The tutorial's resources section points to HLL sketch acceleration on
FPGAs (Kulkarni et al., FPL 2020): the sketch ingests a stream at line
rate because each item is one hash + one register max — a perfect
II=1 pipeline — while CPUs spend a multiply-chain per item.

:class:`HyperLogLog` is the functional sketch (dense, 2^p registers,
the standard bias-corrected estimator); :func:`hll_kernel_spec` is the
synthesized stream kernel and :func:`cpu_insert_time_s` the baseline
cost.  Merging sketches is register-wise max, which is what makes the
operator distributable (and usable inside ACCL reductions).
"""

from __future__ import annotations

import math

import numpy as np

from ..baselines.cpu import CpuModel
from ..core.clocking import FABRIC_300MHZ, ClockDomain
from ..core.device import ResourceVector
from ..core.kernel import KernelSpec

__all__ = ["HyperLogLog", "cpu_insert_time_s", "hll_kernel_spec"]

_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


def _hash64(values: np.ndarray) -> np.ndarray:
    """A deterministic 64-bit mix hash (splitmix64 finalizer)."""
    x = values.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x = (x + _HASH_MULT)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


class HyperLogLog:
    """A dense HyperLogLog sketch with ``2**precision`` registers."""

    def __init__(self, precision: int) -> None:
        if not 4 <= precision <= 18:
            raise ValueError("precision must be in 4..18")
        self.precision = precision
        self.m = 1 << precision
        self.registers = np.zeros(self.m, dtype=np.uint8)

    def add(self, values: np.ndarray) -> None:
        """Insert a batch of integer items."""
        values = np.asarray(values)
        if values.size == 0:
            return
        hashed = _hash64(values.reshape(-1))
        bucket = (hashed >> np.uint64(64 - self.precision)).astype(np.int64)
        remainder = hashed << np.uint64(self.precision)
        # rho: position of the leftmost 1 bit in the remaining bits (+1);
        # a zero remainder means all 64-p bits were zero.
        width = 64 - self.precision
        rho = np.where(
            remainder == 0,
            width + 1,
            _leading_zeros64(remainder) + 1,
        ).astype(np.uint8)
        np.maximum.at(self.registers, bucket, rho)

    def estimate(self) -> float:
        """Bias-corrected cardinality estimate."""
        m = float(self.m)
        inverse_sum = float(np.sum(2.0 ** (-self.registers.astype(np.float64))))
        alpha = _alpha(self.m)
        raw = alpha * m * m / inverse_sum
        zeros = int(np.count_nonzero(self.registers == 0))
        if raw <= 2.5 * m and zeros:
            return m * math.log(m / zeros)  # linear counting
        return raw

    def relative_error_bound(self) -> float:
        """The theoretical standard error ~= 1.04 / sqrt(m)."""
        return 1.04 / math.sqrt(self.m)


def _leading_zeros64(x: np.ndarray) -> np.ndarray:
    """Count of leading zero bits of nonzero uint64 values."""
    # 63 - floor(log2(x)), computed through float64 exponent extraction
    # is unsafe for >2^53; use a bit-halving ladder instead.
    x = x.copy()
    n = np.zeros(x.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        mask = x < (np.uint64(1) << np.uint64(64 - shift))
        n = np.where(mask, n + shift, n)
        x = np.where(mask, x << np.uint64(shift), x)
    return n


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1 + 1.079 / m)


def hll_kernel_spec(
    precision: int, clock: ClockDomain = FABRIC_300MHZ
) -> KernelSpec:
    """The synthesized HLL insertion kernel.

    Eight items per cycle (a 512-bit bus of 64-bit keys, as in the
    FPL'20 design): per lane a hash (pipelined multiply chain), bucket
    index and leading-zero count, then a banked register-max stage that
    resolves same-bucket conflicts in the pipeline.  Registers live in
    BRAM (one RAMB36 per 4 KiB of registers, replicated per bank).
    """
    lanes = 8
    brams = lanes * max(1, (1 << precision) // 4096)
    return KernelSpec(
        name=f"hll-p{precision}",
        ii=1,
        depth=18,  # 3-stage multiply x2 + lzc + banked register update
        unroll=lanes,
        clock=clock,
        resources=ResourceVector(
            lut=6_000 * lanes, ff=9_000 * lanes, dsp=12 * lanes,
            bram_36k=brams,
        ),
    )


def cpu_insert_time_s(cpu: CpuModel, n_items: int,
                      parallel: bool = True) -> float:
    """CPU insertion cost: ~12 scalar ops per item (hash + lzc + max),
    poorly vectorisable due to the scatter update."""
    if n_items <= 0:
        return 0.0
    return cpu.compute_time_s(
        12 * n_items, element_bytes=cpu.simd_bytes, parallel=parallel
    )
