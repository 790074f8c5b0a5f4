"""Use Case II — FANNS: FPGA-accelerated approximate nearest neighbor
search (Jiang et al., SC 2023; Figure 3 of the tutorial).

IVF-PQ is implemented from scratch (k-means, product quantization,
inverted lists); the CPU, GPU and FPGA engines price one shared
functional search from the index's shape, and the hardware generator
picks the best feasible design per recall target.
"""

from .accelerator import (
    FannsAccelerator,
    FannsConfig,
    FpgaSearchOutcome,
    StageTimes,
)
from .cpu_baseline import CpuAnnSearcher, CpuSearchOutcome
from .distributed import DistributedFanns, DistributedSearchOutcome
from .generator import DesignPoint, HardwareGenerator, default_config_space
from .gpu_baseline import GpuAnnSearcher, GpuSearchOutcome
from .ivf import IndexShape, IVFPQIndex, SearchStats, build_ivfpq
from .kmeans import KMeansResult, kmeans, kmeans_pp_init
from .pq import ProductQuantizer, train_pq
from .recall import recall_at_k

__all__ = [
    "CpuAnnSearcher",
    "CpuSearchOutcome",
    "DesignPoint",
    "DistributedFanns",
    "DistributedSearchOutcome",
    "FannsAccelerator",
    "FannsConfig",
    "FpgaSearchOutcome",
    "GpuAnnSearcher",
    "GpuSearchOutcome",
    "HardwareGenerator",
    "IVFPQIndex",
    "IndexShape",
    "KMeansResult",
    "ProductQuantizer",
    "SearchStats",
    "StageTimes",
    "build_ivfpq",
    "default_config_space",
    "kmeans",
    "kmeans_pp_init",
    "recall_at_k",
    "train_pq",
]
