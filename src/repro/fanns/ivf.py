"""IVF-PQ index: inverted lists over a coarse quantizer + PQ codes.

The functional core the CPU, GPU and FPGA engines share; their cost
models read only its :class:`IndexShape`.  Search follows the standard
recipe, one query at a time:

1. rank the ``nlist`` coarse centroids by distance to the query;
2. probe the ``nprobe`` nearest non-empty lists;
3. score all their codes in one ADC pass: one ``adc_table`` call (one
   table per list), one flat ``take``;
4. return the ``k`` best ids in the total order ``(distance, id)``.

Codes are residual: each vector is encoded as ``x - centroid`` of its
list, the accuracy-relevant encoding FANNS uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .kmeans import _nearest, kmeans
from .pq import ProductQuantizer, train_pq

__all__ = ["IVFPQIndex", "IndexShape", "SearchStats", "build_ivfpq"]


@dataclass
class SearchStats:
    """Work counters from one search call (drives the cost models)."""

    n_queries: int = 0
    centroid_distances: int = 0   # query x centroid distance evaluations
    lut_entries: int = 0          # ADC table entries built
    codes_scanned: int = 0        # PQ codes scored
    code_bytes_scanned: int = 0   # bytes of PQ codes touched

    def per_query(self) -> SearchStats:
        """One query's share of the counters (integer means)."""
        n = max(1, self.n_queries)
        return SearchStats(1, *(
            count // n for count in (
                self.centroid_distances, self.lut_entries,
                self.codes_scanned, self.code_bytes_scanned,
            )
        ))


@dataclass(frozen=True)
class IndexShape:
    """The sizes of an IVF-PQ index: all its cost models read of it."""

    nlist: int
    dim: int
    m: int            # PQ subspaces
    ksub: int         # centroids per subspace
    dsub: int         # dimensions per subspace
    code_nbytes: int  # bytes per encoded vector
    n_vectors: int

    def expected_candidates(self, nprobe: int) -> float:
        """Candidates scanned when probing ``nprobe`` lists: every vector
        sits in exactly one list, so the mean list length x nprobe."""
        return self.n_vectors / self.nlist * nprobe


def _top_k(ids: np.ndarray, dists: np.ndarray,
           k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` best candidates in the total order ``(distance, id)``:
    ADC distances tie exactly when codes collide, and a total order
    makes cutting shards first, then merging, select the same ids."""
    if len(dists) > k:
        # Only candidates no farther than the k-th nearest can make it.
        keep = np.flatnonzero(dists <= np.partition(dists, k - 1)[k - 1])
        ids, dists = ids[keep], dists[keep]
    order = np.lexsort((ids, dists))[:k]
    return ids[order], dists[order]


@dataclass(frozen=True)
class IVFPQIndex:
    """A trained, populated IVF-PQ index."""

    centroids: np.ndarray                 # (nlist, dim)
    pq: ProductQuantizer
    list_ids: tuple[np.ndarray, ...]      # per-list vector ids (int64)
    list_codes: tuple[np.ndarray, ...]    # per-list PQ codes (n_i, m) uint8

    @property
    def nlist(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]

    @cached_property
    def shape(self) -> IndexShape:
        pq, n_vectors = self.pq, sum(map(len, self.list_ids))
        return IndexShape(self.nlist, self.dim, pq.m, pq.ksub, pq.dsub,
                          pq.code_nbytes, n_vectors)

    @cached_property
    def _layout(self) -> tuple[np.ndarray, ...]:
        """``(|centroid|^2, list sizes, list starts, ids, slots)`` with
        every list stored back to back; ``slots[i, sub]`` is code ``i``'s
        entry ``sub * ksub + code`` in a flattened ``(m, ksub)`` table."""
        sizes = np.array([len(ids) for ids in self.list_ids], dtype=np.int64)
        slots = np.concatenate(self.list_codes).astype(np.intp)
        slots += np.arange(self.pq.m, dtype=np.intp) * self.pq.ksub
        ids = np.concatenate(self.list_ids).astype(np.int64, copy=False)
        c_sq = (self.centroids ** 2).sum(axis=1)
        return c_sq, sizes, np.cumsum(sizes) - sizes, ids, slots

    # -- search ---------------------------------------------------------------

    def _scan(self, query: np.ndarray,
              lists: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, ADC distances)`` of every code in non-empty ``lists``."""
        _, sizes, starts, ids, slots = self._layout
        counts = sizes[lists]
        # Candidate r is stored row r - first[list] + starts[list].
        first = np.cumsum(counts) - counts
        rows = np.repeat(starts[lists] - first, counts)
        rows += np.arange(len(rows))
        # One table per list: list j's entries start at j * m * ksub.
        tables = self.pq.adc_table(query - self.centroids[lists])
        offsets = np.arange(0, tables.size, self.pq.m * self.pq.ksub)
        entries = np.add(slots.take(rows, axis=0),
                         np.repeat(offsets, counts)[:, None])
        return ids.take(rows), tables.take(entries).sum(axis=1)

    def search(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: int,
        stats: SearchStats | None = None,
        shards: Callable[[np.ndarray], list[np.ndarray]] | None = None,
    ) -> np.ndarray:
        """Approximate k-NN; returns ``(q, k)`` ids (-1 pads short results).

        ``shards`` splits each query's probed lists among the nodes of a
        sharded index; each node cuts its own top-k, the root merges."""
        queries = np.ascontiguousarray(queries, dtype=np.float32)
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise ValueError(f"queries must be (q, {self.dim})")
        if k < 1:
            raise ValueError("k must be >= 1")
        if not 1 <= nprobe <= self.nlist:
            raise ValueError(f"nprobe must be in 1..{self.nlist}")
        out = np.full((queries.shape[0], k), -1, dtype=np.int64)
        c_sq, sizes = self._layout[:2]
        for qi, query in enumerate(queries):
            coarse = c_sq - 2.0 * (self.centroids @ query)
            lists = np.argpartition(coarse, nprobe - 1)[:nprobe]
            lists = lists[sizes[lists] > 0]
            parts = shards(lists) if shards is not None else [lists]
            cuts = [_top_k(*self._scan(query, p), k) for p in parts if len(p)]
            if cuts:
                ids, _ = _top_k(*map(np.concatenate, zip(*cuts)), k)
                out[qi, :len(ids)] = ids
            if stats is not None:
                n_codes = int(sizes[lists].sum())
                stats.centroid_distances += self.nlist
                stats.lut_entries += self.pq.m * self.pq.ksub * len(lists)
                stats.codes_scanned += n_codes
                stats.code_bytes_scanned += n_codes * self.pq.code_nbytes
        if stats is not None:
            stats.n_queries += queries.shape[0]
        return out


def build_ivfpq(
    base: np.ndarray,
    nlist: int,
    m: int,
    ksub: int,
    seed: int,
) -> IVFPQIndex:
    """Train and populate an IVF-PQ index over ``base`` vectors."""
    base = np.ascontiguousarray(base, dtype=np.float32)
    if base.ndim != 2:
        raise ValueError("base vectors must be 2-D")
    n = base.shape[0]
    if not 1 <= nlist <= n:
        raise ValueError(f"need 1 <= nlist <= n, got nlist={nlist}, n={n}")
    centroids = kmeans(base, nlist, seed=seed).centroids
    # Assign all vectors to their nearest centroid; |p|^2 is the same
    # for every centroid, so the ranking leaves it out.
    c_sq = (centroids ** 2).sum(axis=1)[None, :]

    def ranking(rows: np.ndarray, out: np.ndarray, _) -> np.ndarray:
        cross = np.matmul(rows, centroids.T, out=out)
        cross *= 2.0
        return np.subtract(c_sq, cross, out=cross)

    assign = _nearest(base, nlist, ranking)[0]
    training = base - centroids[assign]
    pq = train_pq(training, m=m, ksub=ksub, seed=seed)
    codes = pq.encode(training)
    # A stable sort keeps each list's members in id order.
    members = np.argsort(assign, kind="stable")
    bounds = np.cumsum(np.bincount(assign, minlength=nlist))[:-1]
    return IVFPQIndex(
        centroids=centroids,
        pq=pq,
        list_ids=tuple(np.split(members, bounds)),
        list_codes=tuple(np.split(codes[members], bounds)),
    )
