"""IVF-PQ index: inverted lists over a coarse quantizer + PQ codes.

The functional core both the CPU baseline and the FANNS accelerator
share.  Search follows the standard recipe:

1. rank the ``nlist`` coarse centroids by distance to the query;
2. probe the ``nprobe`` nearest lists;
3. score every code in the probed lists with the ADC table;
4. return the ``k`` best ids.

Residual encoding (encode ``x - centroid`` rather than ``x``) is the
accuracy-relevant option FANNS exposes; both modes are supported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kmeans import kmeans
from .pq import ProductQuantizer, train_pq

__all__ = ["IVFPQIndex", "SearchStats", "build_ivfpq"]


@dataclass
class SearchStats:
    """Work counters from one search call (drives the cost models)."""

    n_queries: int = 0
    centroid_distances: int = 0   # query x centroid distance evaluations
    lut_entries: int = 0          # ADC table entries built
    codes_scanned: int = 0        # PQ codes scored
    code_bytes_scanned: int = 0   # bytes of PQ codes touched


@dataclass(frozen=True)
class IVFPQIndex:
    """A trained, populated IVF-PQ index."""

    centroids: np.ndarray                 # (nlist, dim)
    pq: ProductQuantizer
    list_ids: tuple[np.ndarray, ...]      # per-list vector ids (int64)
    list_codes: tuple[np.ndarray, ...]    # per-list PQ codes (n_i, m) uint8
    residual: bool = True

    @property
    def nlist(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]

    @property
    def n_vectors(self) -> int:
        return sum(len(ids) for ids in self.list_ids)

    @property
    def code_bytes_total(self) -> int:
        """Total bytes of stored PQ codes."""
        return self.n_vectors * self.pq.code_nbytes

    def list_sizes(self) -> np.ndarray:
        """(nlist,) sizes of the inverted lists."""
        return np.array([len(ids) for ids in self.list_ids], dtype=np.int64)

    def expected_candidates(self, nprobe: int) -> float:
        """Expected candidates scanned when probing ``nprobe`` lists
        (mean list length x nprobe, matching the measured average)."""
        if nprobe <= 0:
            return 0.0
        return float(self.list_sizes().mean() * nprobe)

    # -- search ---------------------------------------------------------------

    def search(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: int,
        stats: SearchStats | None = None,
    ) -> np.ndarray:
        """Approximate k-NN; returns ``(q, k)`` ids (-1 pads short results)."""
        queries = np.ascontiguousarray(queries, dtype=np.float32)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise ValueError(f"queries must be (q, {self.dim})")
        if k < 1:
            raise ValueError("k must be >= 1")
        if not 1 <= nprobe <= self.nlist:
            raise ValueError(f"nprobe must be in 1..{self.nlist}")
        out = np.full((queries.shape[0], k), -1, dtype=np.int64)
        c_sq = (self.centroids ** 2).sum(axis=1)
        for qi, query in enumerate(queries):
            coarse = c_sq - 2.0 * (self.centroids @ query)
            probe = np.argpartition(coarse, nprobe - 1)[:nprobe]
            if stats is not None:
                stats.centroid_distances += self.nlist
            candidate_ids = []
            candidate_dists = []
            if not self.residual:
                table = self.pq.adc_table(query)
                if stats is not None:
                    stats.lut_entries += table.size
            for list_id in probe:
                codes = self.list_codes[list_id]
                if len(codes) == 0:
                    continue
                if self.residual:
                    # Residual mode: one ADC table per probed list.
                    table = self.pq.adc_table(query - self.centroids[list_id])
                    if stats is not None:
                        stats.lut_entries += table.size
                candidate_ids.append(self.list_ids[list_id])
                candidate_dists.append(self.pq.adc_distances(table, codes))
                if stats is not None:
                    stats.codes_scanned += len(codes)
                    stats.code_bytes_scanned += codes.nbytes
            if not candidate_ids:
                continue
            ids = np.concatenate(candidate_ids)
            dists = np.concatenate(candidate_dists)
            top = min(k, len(ids))
            # Total order on (distance, id): ADC distances tie exactly
            # when codes collide, and argpartition would then keep an
            # arbitrary tied candidate — the sharded merge in
            # repro.fanns.distributed must be able to reproduce this
            # selection bit-for-bit.
            order = np.lexsort((ids, dists))[:top]
            out[qi, :top] = ids[order]
        if stats is not None:
            stats.n_queries += queries.shape[0]
        return out


def build_ivfpq(
    base: np.ndarray,
    nlist: int,
    m: int,
    ksub: int = 256,
    residual: bool = True,
    train_sample: int | None = None,
    seed: int = 0,
) -> IVFPQIndex:
    """Train and populate an IVF-PQ index over ``base`` vectors."""
    base = np.ascontiguousarray(base, dtype=np.float32)
    if base.ndim != 2:
        raise ValueError("base vectors must be 2-D")
    n = base.shape[0]
    if not 1 <= nlist <= n:
        raise ValueError(f"need 1 <= nlist <= n, got nlist={nlist}, n={n}")
    rng = np.random.default_rng(seed)
    sample = base
    if train_sample is not None and train_sample < n:
        sample = base[rng.choice(n, size=train_sample, replace=False)]
    coarse = kmeans(sample, nlist, seed=seed)
    centroids = coarse.centroids
    # Assign all vectors to their nearest centroid.
    c_sq = (centroids ** 2).sum(axis=1)
    assign = np.empty(n, dtype=np.int64)
    block = 8192
    for start in range(0, n, block):
        chunk = base[start:start + block]
        d = c_sq[None, :] - 2.0 * (chunk @ centroids.T)
        assign[start:start + len(chunk)] = d.argmin(axis=1)
    training = base - centroids[assign] if residual else base
    pq = train_pq(training, m=m, ksub=ksub, seed=seed)
    codes = pq.encode(training)
    list_ids: list[np.ndarray] = []
    list_codes: list[np.ndarray] = []
    for list_id in range(nlist):
        members = np.flatnonzero(assign == list_id)
        list_ids.append(members.astype(np.int64))
        list_codes.append(codes[members])
    return IVFPQIndex(
        centroids=centroids,
        pq=pq,
        list_ids=tuple(list_ids),
        list_codes=tuple(list_codes),
        residual=residual,
    )
