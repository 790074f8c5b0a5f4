"""GPU IVF-PQ searcher — the third platform in the FANNS comparison.

FANNS also benchmarks against GPUs (Faiss-GPU class systems): enormous
batched throughput from HBM bandwidth and wide SIMT scan kernels, but
poor small-batch latency — kernels must be launched and batches
assembled before anything runs.  That latency/throughput asymmetry is
exactly what the tutorial's SLA discussion turns on, so the model
captures it with three terms per batch:

* kernel-launch overhead (a few launches per search);
* compute: coarse distances + LUT build + ADC scan on the SIMT cores;
* memory: PQ codes streaming from GPU HBM.

:meth:`GpuAnnSearcher.price` prices the work counters of the one
search every engine shares.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..microrec.fleetrec import GpuModel, V100
from .ivf import IndexShape, SearchStats

__all__ = ["GpuAnnSearcher", "GpuSearchOutcome"]

_N_KERNEL_LAUNCHES = 4  # coarse, select, LUT, scan+topk


@dataclass(frozen=True)
class GpuSearchOutcome:
    """Modeled GPU timing for a query batch."""

    stats: SearchStats
    batch_time_s: float
    query_latency_s: float  # a batch of one still pays the launches
    qps: float


class GpuAnnSearcher:
    """IVF-PQ search priced on a roofline GPU.

    ``list_scale`` matches the CPU/FPGA searchers' deployment-scale
    modeling (see DESIGN.md §1).
    """

    def __init__(
        self,
        shape: IndexShape,
        gpu: GpuModel = V100,
        *,
        list_scale: int,
        scan_ops_per_code: int = 8,
        full_utilization_batch: int = 64,
    ) -> None:
        if list_scale < 1:
            raise ValueError("list_scale must be >= 1")
        if scan_ops_per_code < 1:
            raise ValueError("scan_ops_per_code must be >= 1")
        if full_utilization_batch < 1:
            raise ValueError("full_utilization_batch must be >= 1")
        self.shape = shape
        self.gpu = gpu
        self.list_scale = list_scale
        self.scan_ops_per_code = scan_ops_per_code
        self.full_utilization_batch = full_utilization_batch

    def _batch_time_s(self, stats: SearchStats) -> float:
        dim, dsub = self.shape.dim, self.shape.dsub
        scale = self.list_scale
        # SIMT underutilization: small batches leave most SMs (and most
        # HBM channels' queues) idle — the reason GPU ANN systems batch.
        utilization = min(
            1.0, max(1, stats.n_queries) / self.full_utilization_batch
        )
        compute_ops = (
            stats.centroid_distances * dim
            + stats.lut_entries * dsub
            + stats.codes_scanned * scale * self.scan_ops_per_code
        )
        compute_s = compute_ops / (self.gpu.flops * utilization)
        memory_s = stats.code_bytes_scanned * scale / (
            self.gpu.hbm_bandwidth * utilization
        )
        launches = _N_KERNEL_LAUNCHES * self.gpu.kernel_launch_s
        return launches + max(compute_s, memory_s)

    def price(self, stats: SearchStats) -> GpuSearchOutcome:
        """The search that counted ``stats``, as one batch and singly."""
        batch = self._batch_time_s(stats)
        return GpuSearchOutcome(
            stats=stats,
            batch_time_s=batch,
            query_latency_s=self._batch_time_s(stats.per_query()),
            qps=max(1, stats.n_queries) / batch if batch > 0 else float("inf"),
        )
