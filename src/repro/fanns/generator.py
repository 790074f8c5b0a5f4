"""The FANNS hardware generator: design-space exploration per recall target.

FANNS' headline idea is *co-design*: given a recall requirement, choose
both the algorithm parameter (``nprobe``) and the hardware configuration
(PE counts, channel assignment) that maximises QPS **subject to the
device's resource budget**.  :class:`HardwareGenerator` reproduces that
loop:

1. measure the recall-vs-nprobe curve of the index on sample queries;
2. enumerate hardware configurations, dropping any that do not fit the
   device;
3. for each surviving configuration, take the smallest ``nprobe``
   meeting the recall target and evaluate the performance model;
4. return the Pareto-best design.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..core.device import ALVEO_U55C, Device
from .accelerator import FannsAccelerator, FannsConfig
from .ivf import IVFPQIndex
from .recall import recall_at_k

__all__ = [
    "DesignPoint",
    "HardwareGenerator",
    "co_design",
    "default_config_space",
]


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated (hardware config, nprobe) pair."""

    config: FannsConfig
    nprobe: int
    recall: float
    qps: float
    latency_s: float
    fits: bool


def default_config_space() -> list[FannsConfig]:
    """The generator's default sweep (powers of two per unit type)."""
    space = []
    for n_dist, n_lut, n_adc, n_hbm in itertools.product(
        (8, 16, 32), (8, 16, 32), (8, 16, 32, 64), (8, 16, 32)
    ):
        space.append(
            FannsConfig(
                n_distance_pes=n_dist,
                n_lut_pes=n_lut,
                n_adc_pes=n_adc,
                n_hbm_channels=n_hbm,
            )
        )
    return space


class HardwareGenerator:
    """Design-space exploration for a given index + device + workload."""

    def __init__(
        self,
        index: IVFPQIndex,
        sample_queries: np.ndarray,
        ground_truth: np.ndarray,
        k: int = 10,
        device: Device = ALVEO_U55C,
        list_scale: int = 1,
    ) -> None:
        if sample_queries.shape[0] != ground_truth.shape[0]:
            raise ValueError("queries and ground truth disagree on count")
        if k > ground_truth.shape[1]:
            raise ValueError(
                f"k={k} exceeds ground-truth width {ground_truth.shape[1]}"
            )
        if list_scale < 1:
            raise ValueError("list_scale must be >= 1")
        self.index = index
        self.queries = sample_queries
        self.ground_truth = ground_truth
        self.k = k
        self.device = device
        self.list_scale = list_scale
        self._recall_cache: dict[int, float] = {}

    def recall_at_nprobe(self, nprobe: int) -> float:
        """Measured recall@k of the index at ``nprobe`` (cached)."""
        if nprobe not in self._recall_cache:
            ids = self.index.search(self.queries, self.k, nprobe)
            self._recall_cache[nprobe] = recall_at_k(
                ids, self.ground_truth, self.k
            )
        return self._recall_cache[nprobe]

    def min_nprobe_for(self, recall_target: float,
                       nprobes: list[int]) -> int | None:
        """Smallest candidate ``nprobe`` meeting the target, or None."""
        for nprobe in sorted(nprobes):
            if self.recall_at_nprobe(nprobe) >= recall_target:
                return nprobe
        return None

    def explore(
        self,
        recall_target: float,
        configs: list[FannsConfig] | None = None,
        nprobes: list[int] | None = None,
    ) -> tuple[DesignPoint | None, list[DesignPoint]]:
        """Evaluate the design space; returns (best, all evaluated points).

        "Best" maximises QPS among feasible points that meet the recall
        target.  Infeasible (doesn't fit) points are recorded with
        ``fits=False`` for reporting.
        """
        if not 0.0 <= recall_target <= 1.0:
            raise ValueError("recall target must be in [0, 1]")
        configs = configs if configs is not None else default_config_space()
        if nprobes is None:
            nprobes = sorted(
                {1, 2, 4, 8, 16, 32, 64} & set(range(1, self.index.nlist + 1))
            ) or [self.index.nlist]
        nprobe = self.min_nprobe_for(recall_target, nprobes)
        points: list[DesignPoint] = []
        best: DesignPoint | None = None
        if nprobe is None:
            return None, points
        recall = self.recall_at_nprobe(nprobe)
        for config in configs:
            fits = self.device.fits(config.resources(self.index.pq.m))
            if not fits:
                points.append(
                    DesignPoint(config, nprobe, recall, 0.0, float("inf"), False)
                )
                continue
            try:
                accel = FannsAccelerator(
                    self.index.shape, config, self.device, enforce_fit=False,
                    list_scale=self.list_scale,
                )
            except MemoryError:
                points.append(
                    DesignPoint(config, nprobe, recall, 0.0, float("inf"), False)
                )
                continue
            stages = accel.stage_times(nprobe)
            point = DesignPoint(
                config=config,
                nprobe=nprobe,
                recall=recall,
                qps=1.0 / stages.bottleneck_s,
                latency_s=stages.latency_s,
                fits=True,
            )
            points.append(point)
            if best is None or point.qps > best.qps:
                best = point
        return best, points


def co_design(
    index_candidates: dict[str, IVFPQIndex],
    sample_queries: np.ndarray,
    ground_truth: np.ndarray,
    recall_target: float,
    k: int = 10,
    device: Device = ALVEO_U55C,
    list_scale: int = 1,
    configs: list[FannsConfig] | None = None,
) -> tuple[str | None, DesignPoint | None, dict[str, DesignPoint | None]]:
    """Joint algorithm/hardware exploration — the full FANNS loop.

    The paper's generator does not stop at PE counts: index parameters
    (``nlist``, PQ bytes) are part of the design space, because a
    coarser index needs a larger ``nprobe`` for the same recall and
    therefore different hardware.  Given several trained candidate
    indexes, this evaluates each with :class:`HardwareGenerator` and
    returns the overall best (index name, design point), plus each
    candidate's best point for reporting (None where the target is
    unreachable).
    """
    if not index_candidates:
        raise ValueError("need at least one candidate index")
    per_index: dict[str, DesignPoint | None] = {}
    best_name: str | None = None
    best_point: DesignPoint | None = None
    for name, index in index_candidates.items():
        generator = HardwareGenerator(
            index, sample_queries, ground_truth, k=k,
            device=device, list_scale=list_scale,
        )
        point, _ = generator.explore(recall_target, configs=configs)
        per_index[name] = point
        if point is None:
            continue
        if best_point is None or point.qps > best_point.qps:
            best_name, best_point = name, point
    return best_name, best_point, per_index
