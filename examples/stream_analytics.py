#!/usr/bin/env python3
"""Operator examples: sketches, any-precision k-means, compression.

The tutorial's Resources section points to open-source FPGA operator
examples (HyperLogLog sketches, Scotch line-rate sketching, BiS-KM
any-precision k-means, SAP HANA's compression/encryption offload).
This example exercises all of them through the library's functional
implementations and prints the offload arguments.

Run:  python examples/stream_analytics.py
"""

import numpy as np

from repro.baselines import xeon_server
from repro.bench import ResultTable
from repro.operators import (
    CountMinSketch,
    HyperLogLog,
    anyprec_kmeans,
    codec_kernel_spec,
    cpu_codec_time_s,
    cpu_insert_time_s,
    dict_encode,
    hll_kernel_spec,
    rle_encode,
)
from repro.workloads import ZipfSampler


def sketch_demo() -> None:
    rng = np.random.default_rng(17)
    stream = ZipfSampler(1_000_000, 1.05, rng).sample(2_000_000)

    hll = HyperLogLog(precision=14)
    hll.add(stream)
    true_distinct = len(np.unique(stream))
    print(
        f"HLL: {true_distinct:,} distinct -> estimate "
        f"{hll.estimate():,.0f} "
        f"({abs(hll.estimate() - true_distinct) / true_distinct:.2%} err, "
        f"{hll.registers.nbytes // 1024} KiB sketch)"
    )

    # Error <= 1e-4 * N at 99.9% confidence: width ceil(e / 1e-4),
    # depth ceil(ln 1000).
    cm = CountMinSketch(width=27_183, depth=7)
    cm.add(stream)
    hottest = int(np.bincount(stream[:100_000]).argmax())
    true_count = int((stream == hottest).sum())
    print(
        f"Count-Min: hottest key {hottest} x{true_count:,} -> "
        f"estimate {int(cm.query(np.array([hottest]))[0]):,} "
        f"(bound +{cm.error_bound():,.0f})"
    )

    cpu = xeon_server()
    spec = hll_kernel_spec(precision=14)
    n = len(stream)
    print(
        f"maintenance for {n:,} items: FPGA "
        f"{spec.latency_seconds(n) * 1e3:.2f} ms vs one core "
        f"{cpu_insert_time_s(cpu, n, parallel=False) * 1e3:.2f} ms"
    )


def kmeans_demo() -> None:
    rng = np.random.default_rng(18)
    centers = rng.random((8, 16)).astype(np.float32) * 10
    points = np.concatenate(
        [c + rng.normal(0, 0.15, (200, 16)).astype(np.float32)
         for c in centers]
    )
    table = ResultTable(
        "BiS-KM: precision vs quality (k=8)",
        ("bits", "traffic speedup", "objective vs full precision"),
    )
    full = anyprec_kmeans(points, k=8, bits=32, seed=1)
    for bits in (2, 4, 8, 32):
        out = anyprec_kmeans(points, k=8, bits=bits, seed=1)
        table.add(bits, out.traffic_speedup,
                  out.full_precision_inertia
                  / max(full.full_precision_inertia, 1e-12))
    table.show()


def compression_demo() -> None:
    rng = np.random.default_rng(19)
    column = np.sort(rng.integers(0, 200, size=2_000_000))
    d = dict_encode(column)
    r = rle_encode(column)
    print(
        f"compression of a sorted 200-distinct column: dict "
        f"{d.ratio:.1f}x, rle {column.nbytes / r.nbytes:.1f}x"
    )
    cpu = xeon_server()
    nbytes = 1 << 31
    spec = codec_kernel_spec("aes-encrypt")
    fpga_s = spec.latency_seconds(nbytes // 8)
    core_s = cpu_codec_time_s(cpu, nbytes, "aes-encrypt", parallel=False)
    print(
        f"encrypting 2 GiB: FPGA datapath {fpga_s * 1e3:.0f} ms vs one "
        f"core {core_s * 1e3:.0f} ms ({core_s / fpga_s:.1f}x)"
    )


if __name__ == "__main__":
    sketch_demo()
    kmeans_demo()
    compression_demo()
