"""The FANNS FPGA accelerator: a staged IVF-PQ search pipeline.

Figure 3 of the tutorial: queries stream through

1. a **coarse distance** PE array (dense query x centroid MACs);
2. a **select-nprobe** unit (K-selection over nlist distances);
3. a **LUT construction** unit (one ADC table per probed list, since
   codes are residual);
4. an array of **ADC scan PEs**, each consuming one PQ code per cycle
   out of HBM-resident inverted lists;
5. systolic **top-K priority queues** overlapping the scan.

Stage times follow the HLS cost model; the scan stage is additionally
bounded by HBM bandwidth (codes are striped across the channels the
configuration dedicates to them).  Queries pipeline through the stages,
so throughput is set by the slowest stage and latency by the sum — the
same first-order model the FANNS paper's performance predictor uses.

The model reads only the index's :class:`~repro.fanns.ivf.IndexShape`:
:meth:`FannsAccelerator.price` needs no trained index and prices what
one shared :meth:`~repro.fanns.ivf.IVFPQIndex.search` returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.clocking import FABRIC_300MHZ, ClockDomain
from ..core.device import ALVEO_U55C, Device, ResourceVector
from ..memory.technologies import hbm2_channel
from .ivf import IndexShape

__all__ = ["FannsAccelerator", "FannsConfig", "FpgaSearchOutcome", "StageTimes"]


@dataclass(frozen=True)
class FannsConfig:
    """A hardware configuration of the FANNS pipeline.

    The generator (:mod:`repro.fanns.generator`) searches over these.
    """

    n_distance_pes: int = 16
    n_lut_pes: int = 16
    n_adc_pes: int = 32
    n_hbm_channels: int = 16
    clock: ClockDomain = FABRIC_300MHZ

    def __post_init__(self) -> None:
        if min(self.n_distance_pes, self.n_lut_pes, self.n_adc_pes,
               self.n_hbm_channels) < 1:
            raise ValueError("all PE/channel counts must be >= 1")

    def resources(self, m: int) -> ResourceVector:
        """Fabric demand of this configuration for ``m``-byte codes.

        Per-PE costs follow FANNS' reported per-unit utilization
        ratios: distance PEs are DSP-heavy, ADC PEs are BRAM-heavy
        (each keeps ``m`` banked LUT copies for single-cycle lookups).
        """
        distance = ResourceVector(lut=1_800, ff=2_600, dsp=5) * self.n_distance_pes
        lut_build = ResourceVector(lut=1_200, ff=1_800, dsp=4) * self.n_lut_pes
        adc = ResourceVector(
            lut=2_500, ff=3_500, dsp=m, bram_36k=max(1, m // 2)
        ) * self.n_adc_pes
        topk = ResourceVector(lut=30_000, ff=45_000, bram_36k=16)
        control = ResourceVector(lut=50_000, ff=80_000, bram_36k=32)
        hbm = ResourceVector(hbm_channels=self.n_hbm_channels)
        return distance + lut_build + adc + topk + control + hbm


@dataclass(frozen=True)
class StageTimes:
    """Per-query stage times in seconds."""

    coarse_s: float
    select_s: float
    lut_s: float
    scan_s: float
    topk_drain_s: float

    @property
    def latency_s(self) -> float:
        """End-to-end latency of one query."""
        return (
            self.coarse_s + self.select_s + self.lut_s
            + self.scan_s + self.topk_drain_s
        )

    @property
    def bottleneck_s(self) -> float:
        """The pipeline initiation interval (slowest stage)."""
        return max(
            self.coarse_s, self.select_s, self.lut_s,
            self.scan_s, self.topk_drain_s,
        )


@dataclass(frozen=True)
class FpgaSearchOutcome:
    """Modeled accelerator timing for a query batch."""

    stages: StageTimes
    query_latency_s: float
    qps: float
    batch_time_s: float


class FannsAccelerator:
    """A FANNS instance: an index of ``shape`` deployed under a config."""

    def __init__(
        self,
        shape: IndexShape,
        config: FannsConfig = FannsConfig(),
        device: Device = ALVEO_U55C,
        enforce_fit: bool = True,
        *,
        list_scale: int,
    ) -> None:
        if list_scale < 1:
            raise ValueError("list_scale must be >= 1")
        self.shape = shape
        self.config = config
        self.device = device
        self.list_scale = list_scale
        demand = config.resources(shape.m)
        if enforce_fit and not device.fits(demand):
            raise ResourceWarning(
                f"FANNS config does not fit {device.name}: "
                f"{device.utilization_report(demand)}"
            )
        code_bytes = shape.n_vectors * shape.code_nbytes * list_scale
        if code_bytes > config.n_hbm_channels * hbm2_channel().capacity_bytes:
            raise MemoryError(
                "PQ codes do not fit the configured HBM channels"
            )
        self._hbm = hbm2_channel()

    # -- performance model ---------------------------------------------------

    def stage_times(self, nprobe: int) -> StageTimes:
        """Per-query stage times under the current config."""
        shape, cfg = self.shape, self.config
        if not 1 <= nprobe <= shape.nlist:
            raise ValueError(f"nprobe must be in 1..{shape.nlist}")
        clock = cfg.clock
        # S1: nlist x dim MACs over the distance PE array.
        coarse_cycles = math.ceil(shape.nlist * shape.dim / cfg.n_distance_pes)
        # S2: streaming K-selection over nlist distances.
        select_cycles = shape.nlist + 2 * nprobe
        # S3: one table per probed list (codes are residual).
        lut_cycles = math.ceil(
            nprobe * shape.ksub * shape.dsub / cfg.n_lut_pes
        )
        # S4: scan expected candidates; 1 code/PE/cycle, HBM-bounded.
        candidates = shape.expected_candidates(nprobe) * self.list_scale
        scan_cycles = math.ceil(candidates / cfg.n_adc_pes)
        scan_compute_s = clock.cycles_to_seconds(scan_cycles)
        code_bytes = candidates * shape.code_nbytes
        share = math.ceil(code_bytes / cfg.n_hbm_channels)
        scan_memory_s = self._hbm.stream_time_ps(int(share)) / 1e12
        # S5: priority queues drain K entries after the last code.
        topk_cycles = 64
        return StageTimes(
            coarse_s=clock.cycles_to_seconds(coarse_cycles),
            select_s=clock.cycles_to_seconds(select_cycles),
            lut_s=clock.cycles_to_seconds(lut_cycles),
            scan_s=max(scan_compute_s, scan_memory_s),
            topk_drain_s=clock.cycles_to_seconds(topk_cycles),
        )

    def price(self, nprobe: int, n_queries: int) -> FpgaSearchOutcome:
        """Modeled timing of ``n_queries`` pipelined queries at ``nprobe``."""
        stages = self.stage_times(nprobe)
        batch = stages.latency_s + max(0, n_queries - 1) * stages.bottleneck_s
        return FpgaSearchOutcome(
            stages=stages,
            query_latency_s=stages.latency_s,
            qps=1.0 / stages.bottleneck_s,
            batch_time_s=batch,
        )
