"""BiS-KM: any-precision k-means (FPGA'20 operator example).

BiS-KM stores the dataset bit-serially so one FPGA design can run
k-means at *any* precision from 1 bit up to full: reading fewer bit
planes moves proportionally fewer bytes, and for k-means the low-order
bits rarely change the converged clustering.  The trade is precision
vs throughput — the knob this module exposes:

* :func:`quantize` — reduce a dataset to its top ``bits`` bit planes;
* :func:`anyprec_kmeans` — run Lloyd's on the quantized data and
  report clustering quality against the full-precision objective;
* :func:`scan_speedup` — the memory-traffic speedup of reading only
  ``bits`` planes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..fanns.kmeans import KMeansResult, kmeans

__all__ = ["AnyPrecisionResult", "anyprec_kmeans", "quantize", "scan_speedup"]

_FULL_BITS = 32


def quantize(points: np.ndarray, bits: int) -> np.ndarray:
    """Keep the ``bits`` most significant bits of a fixed-point encoding.

    Data is min-max scaled to [0, 1), encoded on ``_FULL_BITS`` bits,
    truncated, and decoded back — exactly the effect of streaming only
    the top bit planes of a bit-serial layout.
    """
    if not 1 <= bits <= _FULL_BITS:
        raise ValueError(f"bits must be in 1..{_FULL_BITS}")
    points = np.asarray(points, dtype=np.float64)
    low = points.min(axis=0, keepdims=True)
    span = points.max(axis=0, keepdims=True) - low
    span = np.where(span == 0, 1.0, span)
    unit = (points - low) / span
    levels = 2.0 ** bits
    truncated = np.floor(np.clip(unit, 0.0, 1.0 - 1e-12) * levels) / levels
    return (truncated * span + low).astype(np.float32)


@dataclass(frozen=True)
class AnyPrecisionResult:
    """Outcome of a reduced-precision k-means run."""

    bits: int
    result: KMeansResult
    full_precision_inertia: float  # quantized centroids scored on raw data
    traffic_speedup: float


def scan_speedup(bits: int) -> float:
    """Memory-traffic speedup of reading ``bits`` of 32 bit planes."""
    if not 1 <= bits <= _FULL_BITS:
        raise ValueError(f"bits must be in 1..{_FULL_BITS}")
    return _FULL_BITS / bits


def anyprec_kmeans(
    points: np.ndarray,
    k: int,
    bits: int,
    seed: int,
    max_iterations: int = 25,
) -> AnyPrecisionResult:
    """Run k-means on the top ``bits`` bit planes of ``points``.

    The returned ``full_precision_inertia`` scores the learned
    centroids against the *unquantized* data, which is the quality
    metric BiS-KM reports.
    """
    points = np.ascontiguousarray(points, dtype=np.float32)
    reduced = quantize(points, bits)
    result = kmeans(reduced, k, max_iterations=max_iterations, seed=seed)
    # Score on full-precision data.
    d = (
        (points ** 2).sum(axis=1)[:, None]
        - 2.0 * points @ result.centroids.T
        + (result.centroids ** 2).sum(axis=1)[None, :]
    )
    full_inertia = float(np.maximum(d.min(axis=1), 0.0).sum())
    return AnyPrecisionResult(
        bits=bits,
        result=result,
        full_precision_inertia=full_inertia,
        traffic_speedup=scan_speedup(bits),
    )
