"""The MicroRec inference accelerator (Figure 5 of the tutorial).

Two stages form the inference pipeline:

1. **feature retrieval** — every (possibly Cartesian-combined) table is
   placed either in on-chip SRAM (single-cycle, fully parallel banks)
   or on its own HBM pseudo-channel; a batch's lookups complete when
   the busiest channel finishes;
2. **DNN computation** — the concatenated embeddings stream through a
   DSP systolic MLP.

Stages pipeline across inferences, so throughput is set by the slower
stage and a single inference's latency by the sum — the architecture's
whole point being that dozens of lookups that would serialise on a CPU
finish in one or two memory round trips here.

Placement: smallest tables go to SRAM first (maximising how many
lookups leave HBM entirely), the rest spread over HBM channels
least-loaded-first — both straight from the MicroRec paper.

The hardware model is a function of the model spec alone: placement,
HBM allocation and every stage time follow from table sizes and layer
widths, so an accelerator is built from a
:class:`~repro.workloads.traces.RecModelSpec`.  :meth:`price` is its
one pricing path: a batch size in, the :class:`BatchTiming` out (stage
times, one inference's latency, the overlapped batch time and QPS),
with no embedding data and no MLP weights.  :meth:`infer` adds the
functional half — it gathers rows from the
:class:`~repro.microrec.embedding.EmbeddingTables` through the
Cartesian plan and runs the MLP — and charges exactly :meth:`price`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.clocking import FABRIC_300MHZ, ClockDomain
from ..core.device import ALVEO_U280, Device
from ..memory.banked import BankedMemory
from ..memory.technologies import hbm2_channel
from ..workloads.traces import RecModelSpec
from .cartesian import CartesianPlan, plan_cartesian
from .dnn import Mlp, fpga_mlp_latency_s
from .embedding import EmbeddingTables

__all__ = [
    "BatchTiming",
    "InferenceOutcome",
    "MicroRecAccelerator",
    "MicroRecConfig",
    "Placement",
]


@dataclass(frozen=True)
class MicroRecConfig:
    """Hardware parameters of a MicroRec instance."""

    sram_budget_bytes: int = 24 * 1024 * 1024
    n_hbm_channels: int = 32
    dnn_dsp_macs: int = 2048
    clock: ClockDomain = FABRIC_300MHZ
    sram_access_cycles: int = 2

    def __post_init__(self) -> None:
        if self.sram_budget_bytes < 0:
            raise ValueError("SRAM budget must be >= 0")
        if self.n_hbm_channels < 1:
            raise ValueError("need at least one HBM channel")
        if self.dnn_dsp_macs < 1:
            raise ValueError("need at least one DSP MAC")
        if self.sram_access_cycles < 1:
            raise ValueError("SRAM access must cost at least one cycle")


@dataclass(frozen=True)
class Placement:
    """Where each combined table lives."""

    sram_tables: tuple[int, ...]  # combined-table indices in on-chip SRAM
    hbm_tables: tuple[int, ...]   # combined-table indices in HBM
    sram_bytes: int


@dataclass(frozen=True)
class BatchTiming:
    """Modeled timing of one batch on a two-stage inference engine."""

    lookup_s: float      # feature-retrieval stage time for the batch
    dnn_s: float         # DNN stage time for the batch
    latency_s: float     # one-inference end-to-end latency
    batch_time_s: float  # batch completion time
    qps: float


@dataclass(frozen=True)
class InferenceOutcome(BatchTiming):
    """Logits plus modeled timing for one batch."""

    logits: np.ndarray


class MicroRecAccelerator:
    """A deployed MicroRec instance for one model."""

    def __init__(
        self,
        spec: RecModelSpec,
        plan: CartesianPlan | None = None,
        config: MicroRecConfig = MicroRecConfig(),
        device: Device = ALVEO_U280,
        seed: int = 0,
        tracer=None,
    ) -> None:
        self.config = config
        self.device = device
        self.plan = plan if plan is not None else plan_cartesian(spec, 0)
        if self.plan.spec != spec:
            raise ValueError("plan was built for a different model spec")
        self._row_bytes = self.plan.combined_row_bytes()
        sizes = self.plan.combined_table_bytes()
        sram_limit = min(
            config.sram_budget_bytes,
            device.onchip_sram_bytes,
        )
        # Smallest-first into SRAM.
        order = sorted(range(len(sizes)), key=lambda i: (sizes[i], i))
        sram: list[int] = []
        used = 0
        for idx in order:
            if used + sizes[idx] <= sram_limit:
                sram.append(idx)
                used += sizes[idx]
        hbm_tables = [i for i in range(len(sizes)) if i not in set(sram)]
        self.placement = Placement(
            sram_tables=tuple(sorted(sram)),
            hbm_tables=tuple(hbm_tables),
            sram_bytes=used,
        )
        self._hbm = BankedMemory.uniform(
            hbm2_channel(), config.n_hbm_channels, name="microrec-hbm",
            tracer=tracer,
        )
        channel_cap = hbm2_channel().capacity_bytes
        for idx in hbm_tables:
            if sizes[idx] > channel_cap:
                # Tables larger than one pseudo-channel stripe across
                # several; their lookups spread over the shards.
                self._hbm.allocate_striped(
                    f"t{idx}", sizes[idx], expected_traffic=1.0
                )
            else:
                self._hbm.allocate(f"t{idx}", sizes[idx], expected_traffic=1.0)
        self.mlp = Mlp(spec.concat_width, spec.mlp_layers, seed=seed)

    # -- performance model ---------------------------------------------------

    def lookup_time_s(self, batch: int) -> float:
        """Feature-retrieval stage time for ``batch`` inferences.

        SRAM banks serve one lookup per table per ``sram_access_cycles``
        in parallel; HBM tables each issue ``batch`` random reads of one
        row, completing at the busiest channel's makespan.
        """
        if batch < 1:
            raise ValueError("batch must be >= 1")
        sram_cycles = self.config.sram_access_cycles * batch
        sram_s = (
            self.config.clock.cycles_to_seconds(sram_cycles)
            if self.placement.sram_tables
            else 0.0
        )
        hbm_s = 0.0
        if self.placement.hbm_tables:
            lookups = {
                f"t{idx}": (batch, self._row_bytes[idx])
                for idx in self.placement.hbm_tables
            }
            hbm_s = self._hbm.batch_lookup_time_ps(lookups) / 1e12
        return max(sram_s, hbm_s)

    def dnn_time_s(self, batch: int) -> float:
        """DNN stage time for ``batch`` inferences (systolic, pipelined)."""
        if batch < 1:
            raise ValueError("batch must be >= 1")
        per_inference = fpga_mlp_latency_s(
            self.mlp, self.config.dnn_dsp_macs, self.config.clock
        )
        # The array pipelines inferences at the per-layer occupancy.
        occupancy = per_inference * 0.75
        return per_inference + (batch - 1) * occupancy

    def price(self, batch: int) -> BatchTiming:
        """Modeled timing of ``batch`` inferences.

        The stages pipeline across inferences: a batch pays the slower
        stage plus one pass through the faster one.
        """
        lookup_s = self.lookup_time_s(batch)
        dnn_s = self.dnn_time_s(batch)
        # One single-inference probe: a traced HBM counts the accesses
        # of every call (e7's ``hbm.lookups``).
        lookup_1, dnn_1 = self.lookup_time_s(1), self.dnn_time_s(1)
        latency = lookup_1 + dnn_1
        batch_time = max(lookup_s, dnn_s) + min(lookup_1, dnn_1)
        return BatchTiming(
            lookup_s=lookup_s,
            dnn_s=dnn_s,
            latency_s=latency,
            batch_time_s=batch_time,
            qps=batch / batch_time,
        )

    def infer(
        self, tables: EmbeddingTables, trace: np.ndarray
    ) -> InferenceOutcome:
        """Run a batch gathered from ``tables``: logits + modeled timing."""
        timing = self.price(len(trace))
        logits = self.mlp.forward(self.plan.lookup(tables, trace))
        return InferenceOutcome(logits=logits, **vars(timing))

    # -- accounting -------------------------------------------------------------

    @property
    def lookups_per_inference(self) -> int:
        """Memory accesses per inference (after Cartesian combining)."""
        return self.plan.n_lookups

    @property
    def hbm_lookups_per_inference(self) -> int:
        """Off-chip accesses per inference (the expensive kind)."""
        return len(self.placement.hbm_tables)
