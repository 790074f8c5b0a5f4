"""CPU IVF-PQ searcher: the baseline side of the FANNS comparison.

:meth:`CpuAnnSearcher.price` prices the work counters of one shared
:meth:`~repro.fanns.ivf.IVFPQIndex.search`
(:class:`~repro.fanns.ivf.SearchStats`) on the roofline CPU model, the
way a Faiss-style implementation spends its cycles:

* coarse quantization — dense distance to all ``nlist`` centroids;
* ADC table construction — ``ksub x dim`` MACs per table;
* list scan — ``m`` one-byte gathers + adds per candidate code, with
  the codes streaming from DRAM;
* top-k maintenance — a few ops per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..baselines.cpu import CpuModel, xeon_server
from .ivf import IndexShape, IVFPQIndex, SearchStats

__all__ = ["CpuSearchOutcome", "CpuAnnSearcher"]


@dataclass(frozen=True)
class CpuSearchOutcome:
    """Modeled CPU timing for a query batch (ids once searched)."""

    stats: SearchStats
    batch_time_s: float       # all queries, all cores
    query_latency_s: float    # one query, one core
    qps: float
    ids: np.ndarray | None = None


class CpuAnnSearcher:
    """IVF-PQ search priced on a CPU model.

    ``list_scale`` models deployment-scale list lengths: timing behaves
    as if every inverted list were that many times longer (the paper's
    datasets are 1e8-1e9 vectors; the functional index here is small).
    Recall is unaffected — it is a property of the functional search.
    """

    def __init__(
        self,
        shape: IndexShape,
        cpu: CpuModel | None = None,
        list_scale: int = 1,
    ) -> None:
        if list_scale < 1:
            raise ValueError("list_scale must be >= 1")
        self.shape = shape
        self.cpu = cpu or xeon_server()
        self.list_scale = list_scale

    def _work_time_s(self, stats: SearchStats, parallel: bool) -> float:
        dim, m, dsub = self.shape.dim, self.shape.m, self.shape.dsub
        scale = self.list_scale
        coarse_ops = stats.centroid_distances * dim
        lut_ops = stats.lut_entries * dsub
        # m gathers+adds per code, ~4 ops of top-k maintenance.
        scan_ops = stats.codes_scanned * scale * (m + 4)
        compute = self.cpu.compute_time_s(
            coarse_ops + lut_ops, element_bytes=4, parallel=parallel
        ) + self.cpu.compute_time_s(
            # Byte gathers vectorise poorly; charge them at scalar width.
            scan_ops, element_bytes=self.cpu.simd_bytes, parallel=parallel
        )
        memory = self.cpu.stream_time_s(
            stats.code_bytes_scanned * scale, parallel=parallel
        )
        code_bytes = self.shape.n_vectors * self.shape.code_nbytes
        if code_bytes * scale > self.cpu.llc_bytes:
            return max(compute, memory)
        return compute

    def price(self, stats: SearchStats) -> CpuSearchOutcome:
        """The search that counted ``stats``, on all cores and one."""
        batch = self._work_time_s(stats, parallel=True)
        latency = self._work_time_s(stats.per_query(), parallel=False)
        return CpuSearchOutcome(
            stats=stats,
            batch_time_s=batch,
            query_latency_s=latency,
            qps=max(1, stats.n_queries) / batch if batch > 0 else float("inf"),
        )

    def search(self, index: IVFPQIndex, queries: np.ndarray, k: int,
               nprobe: int) -> CpuSearchOutcome:
        """Run a query batch on ``index``: its ids, priced on the CPU."""
        if index.shape != self.shape:
            raise ValueError("index does not have the shape this prices")
        stats = SearchStats()
        ids = index.search(queries, k, nprobe, stats=stats)
        return replace(self.price(stats), ids=ids)
