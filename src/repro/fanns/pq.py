"""Product quantization: training, encoding, asymmetric distance (ADC).

PQ splits a ``dim``-dimensional vector into ``m`` subvectors and
quantizes each with its own 256-centroid codebook, compressing a vector
to ``m`` bytes.  At query time an ADC lookup table of shape
``(m, 256)`` turns distance evaluation into ``m`` table lookups per
code — the operation FANNS parallelises with PE arrays on the FPGA.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kmeans import (
    _nearest,
    _squared_distances_columns,
    _squared_norms,
    kmeans,
)

__all__ = ["ProductQuantizer", "train_pq"]


@dataclass(frozen=True)
class ProductQuantizer:
    """A trained product quantizer.

    ``codebooks`` has shape ``(m, ksub, dsub)``: ``m`` sub-quantizers,
    ``ksub`` centroids each, over ``dsub = dim // m`` dimensions.
    """

    codebooks: np.ndarray

    def __post_init__(self) -> None:
        if self.codebooks.ndim != 3:
            raise ValueError("codebooks must be (m, ksub, dsub)")

    @property
    def m(self) -> int:
        """Number of subspaces (bytes per code)."""
        return self.codebooks.shape[0]

    @property
    def ksub(self) -> int:
        """Centroids per subspace."""
        return self.codebooks.shape[1]

    @property
    def dsub(self) -> int:
        """Dimensions per subspace."""
        return self.codebooks.shape[2]

    @property
    def dim(self) -> int:
        return self.m * self.dsub

    @property
    def code_nbytes(self) -> int:
        """Bytes per encoded vector (1 byte per subspace for ksub<=256)."""
        return self.m

    def _check_dim(self, vectors: np.ndarray) -> None:
        if vectors.shape[-1] != self.dim:
            raise ValueError(
                f"expected dim {self.dim}, got {vectors.shape[-1]}"
            )

    def encode(self, vectors: np.ndarray) -> np.ndarray:
        """Quantize ``(n, dim)`` vectors to ``(n, m)`` uint8 codes.

        Each subvector gets its nearest centroid under
        ``|p|^2 - 2 p.c + |c|^2``, assigned in the row blocks of
        :func:`~repro.fanns.kmeans._nearest`.
        """
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        self._check_dim(vectors)
        n = vectors.shape[0]
        codes = np.empty((n, self.m), dtype=np.uint8)
        for sub in range(self.m):
            chunk = vectors[:, sub * self.dsub:(sub + 1) * self.dsub]
            cb = self.codebooks[sub]
            cb_sq = (cb ** 2).sum(axis=1)[None, :]
            codes[:, sub] = _nearest(chunk, self.ksub, lambda rows, out, _: (
                _code_distances(rows, cb, cb_sq, out)))[0]
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct approximate vectors from codes."""
        if codes.shape[-1] != self.m:
            raise ValueError(f"expected {self.m} bytes per code")
        parts = [
            self.codebooks[sub][codes[:, sub]] for sub in range(self.m)
        ]
        return np.concatenate(parts, axis=1)

    def adc_table(self, query: np.ndarray) -> np.ndarray:
        """The float32 squared distances query-vs-centroids per subspace.

        ``query`` is ``(..., dim)`` and the table ``(..., m, ksub)``:
        entry ``[..., sub, c]`` is the squared distance from the query's
        ``sub``-th subvector to centroid ``c`` of that subspace, summed
        exactly as :func:`~repro.fanns.kmeans._squared_distances_columns`
        sums (numpy's order for one subvector), so each query's table is
        the same whatever the leading shape.
        """
        query = np.ascontiguousarray(query, dtype=np.float32)
        self._check_dim(query)
        subvectors = query.reshape(query.shape[:-1] + (self.m, self.dsub))
        table = _squared_distances_columns(self._codebook_columns, subvectors)
        return table.astype(np.float32, copy=False)

    @cached_property
    def _codebook_columns(self) -> np.ndarray:
        """The codebooks as contiguous ``(m, dsub, ksub)`` columns."""
        return np.ascontiguousarray(self.codebooks.swapaxes(1, 2))

    def adc_distances(self, table: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Approximate squared distances of ``codes`` given an ADC table."""
        if codes.size == 0:
            return np.zeros(0, dtype=np.float32)
        # Gather table[sub, codes[:, sub]] and sum over sub.
        gathered = table[np.arange(self.m)[None, :], codes]
        return gathered.sum(axis=1)


def _code_distances(rows: np.ndarray, codebook: np.ndarray,
                    cb_sq: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``|p|^2 - 2 p.c + |c|^2`` from a block of subvectors to every
    centroid of ``codebook``, computed in ``out``."""
    cross = np.matmul(2.0 * rows, codebook.T, out=out)
    np.subtract(_squared_norms(rows)[:, None], cross, out=cross)
    cross += cb_sq
    return cross


def train_pq(
    vectors: np.ndarray,
    m: int,
    ksub: int = 256,
    max_iterations: int = 15,
    seed: int = 0,
) -> ProductQuantizer:
    """Train a product quantizer on ``vectors``.

    ``dim`` must be divisible by ``m``; ``ksub`` <= 256 keeps codes one
    byte per subspace.
    """
    vectors = np.ascontiguousarray(vectors, dtype=np.float32)
    if vectors.ndim != 2:
        raise ValueError("training vectors must be 2-D")
    dim = vectors.shape[1]
    if m < 1 or dim % m != 0:
        raise ValueError(f"dim {dim} not divisible by m={m}")
    if not 1 <= ksub <= 256:
        raise ValueError("ksub must be in 1..256 (one-byte codes)")
    if vectors.shape[0] < ksub:
        raise ValueError(
            f"need at least ksub={ksub} training vectors, "
            f"got {vectors.shape[0]}"
        )
    dsub = dim // m
    codebooks = np.empty((m, ksub, dsub), dtype=np.float32)
    for sub in range(m):
        chunk = vectors[:, sub * dsub:(sub + 1) * dsub]
        result = kmeans(
            chunk, ksub, max_iterations=max_iterations, seed=seed + sub
        )
        codebooks[sub] = result.centroids
    return ProductQuantizer(codebooks=codebooks)
