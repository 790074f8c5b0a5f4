"""Dictionary + run-length codecs — the SAP HANA offload example.

Chiosa et al. (VLDB 2022, cited by the tutorial) accelerate column
compression/decompression (and encryption) for SAP HANA on FPGAs: the
codecs are cheap per value, so at column-scan volumes the CPU pays
real core-time while an FPGA datapath applies them at line rate.

Functional codecs here are exact and invertible (tested round-trip);
kernel specs and CPU costs follow the usual pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.cpu import CpuModel
from ..core.clocking import FABRIC_300MHZ, ClockDomain
from ..core.device import ResourceVector
from ..core.kernel import KernelSpec

__all__ = [
    "DictEncoded",
    "RleEncoded",
    "codec_kernel_spec",
    "cpu_codec_time_s",
    "dict_decode",
    "dict_encode",
    "rle_decode",
    "rle_encode",
]


@dataclass(frozen=True)
class DictEncoded:
    """A dictionary-encoded column: codes index into ``dictionary``."""

    dictionary: np.ndarray
    codes: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.dictionary.nbytes + self.codes.nbytes

    @property
    def ratio(self) -> float:
        """Original bytes / encoded bytes."""
        original = self.codes.size * self.dictionary.dtype.itemsize
        return original / max(1, self.nbytes)


def dict_encode(column: np.ndarray) -> DictEncoded:
    """Dictionary-encode a column; code width shrinks to fit."""
    column = np.asarray(column)
    dictionary, inverse = np.unique(column, return_inverse=True)
    n = len(dictionary)
    if n <= 1 << 8:
        codes = inverse.astype(np.uint8)
    elif n <= 1 << 16:
        codes = inverse.astype(np.uint16)
    else:
        codes = inverse.astype(np.uint32)
    return DictEncoded(dictionary=dictionary, codes=codes)


def dict_decode(encoded: DictEncoded) -> np.ndarray:
    """Materialise the original column."""
    return encoded.dictionary[encoded.codes]


@dataclass(frozen=True)
class RleEncoded:
    """Run-length encoding: parallel arrays of values and run lengths."""

    values: np.ndarray
    lengths: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.values.nbytes + self.lengths.nbytes


def rle_encode(column: np.ndarray) -> RleEncoded:
    """Run-length encode a column."""
    column = np.asarray(column)
    if column.size == 0:
        return RleEncoded(
            values=column[:0], lengths=np.zeros(0, dtype=np.int64)
        )
    change = np.flatnonzero(column[1:] != column[:-1]) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [column.size]))
    return RleEncoded(
        values=column[starts], lengths=(ends - starts).astype(np.int64)
    )


def rle_decode(encoded: RleEncoded) -> np.ndarray:
    """Materialise the original column."""
    return np.repeat(encoded.values, encoded.lengths)


def codec_kernel_spec(
    kind: str, clock: ClockDomain = FABRIC_300MHZ
) -> KernelSpec:
    """The synthesized codec datapath.

    ``kind`` in {'dict-decode', 'rle-decode', 'dict-encode',
    'rle-encode'}; decoders are a BRAM lookup / counter per value
    (II=1, 8 values per cycle on a 512-bit bus), encoders add a
    hash/compare stage.
    """
    kinds = {
        "dict-decode": (6, ResourceVector(lut=5_000, ff=8_000, bram_36k=64)),
        "rle-decode": (4, ResourceVector(lut=3_000, ff=5_000)),
        "dict-encode": (20, ResourceVector(lut=22_000, ff=30_000,
                                           bram_36k=128)),
        "rle-encode": (6, ResourceVector(lut=4_000, ff=6_000)),
        # AES-256-GCM at one 512-bit beat per cycle (HANA's crypto path).
        "aes-encrypt": (42, ResourceVector(lut=60_000, ff=90_000,
                                           bram_36k=16)),
    }
    if kind not in kinds:
        raise ValueError(f"unknown codec {kind!r}; have {sorted(kinds)}")
    depth, resources = kinds[kind]
    return KernelSpec(
        name=kind, ii=1, depth=depth, unroll=8, clock=clock,
        resources=resources,
    )


def cpu_codec_time_s(
    cpu: CpuModel, nbytes: int, kind: str, parallel: bool = True
) -> float:
    """CPU codec cost: ops-per-byte roofline per codec kind."""
    ops_per_byte = {
        "dict-decode": 0.5, "rle-decode": 0.4,
        "dict-encode": 3.0, "rle-encode": 0.6,
        # AES-NI sustains a few GB/s per core: ~10 lane-ops per byte in
        # this model's units.
        "aes-encrypt": 10.0,
    }
    if kind not in ops_per_byte:
        raise ValueError(f"unknown codec {kind!r}")
    return cpu.scan_time_s(nbytes, ops_per_byte=ops_per_byte[kind],
                           parallel=parallel)
