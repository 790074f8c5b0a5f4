"""Integration: the FANNS analytic stage model vs a live pipeline.

Builds the accelerator's five stages as actual BurstKernels connected
by streams (one burst per query per stage, carrying that stage's work
item count) and checks that the event-driven timing agrees with the
analytic :class:`~repro.fanns.accelerator.StageTimes` on both latency
and steady-state throughput — the same kind of model-vs-simulation
ablation E1 does for a single kernel.
"""

import math

import numpy as np
import pytest

from repro.core import (
    Burst,
    BurstKernel,
    KernelSpec,
    Simulator,
    Sink,
    Source,
    Stream,
)
from repro.fanns.accelerator import FannsAccelerator, FannsConfig
from repro.fanns.ivf import build_ivfpq
from repro.workloads.vectors import clustered_dataset

_DS = clustered_dataset(
    n=2000, dim=16, n_queries=10, gt_k=5, n_clusters=16,
    cluster_std=0.2, seed=23,
)
_INDEX = build_ivfpq(_DS.base, nlist=16, m=4, ksub=64, seed=23)
_CONFIG = FannsConfig(
    n_distance_pes=8, n_lut_pes=8, n_adc_pes=16, n_hbm_channels=16
)
_NPROBE = 4


def _build_event_pipeline(n_queries: int):
    """The 5-stage FANNS pipeline as burst kernels; returns done_ps."""
    accel = FannsAccelerator(_INDEX.shape, _CONFIG)
    index, cfg = _INDEX, _CONFIG
    clock = cfg.clock
    candidates = math.ceil(index.shape.expected_candidates(_NPROBE))

    # Per-query work items per stage (matching accelerator.stage_times).
    coarse_work = index.nlist * index.dim
    select_work = index.nlist + 2 * _NPROBE
    lut_work = _NPROBE * index.pq.ksub * index.pq.dsub

    stages = [
        KernelSpec("coarse", ii=1, depth=16, unroll=cfg.n_distance_pes,
                   clock=clock),
        KernelSpec("select", ii=1, depth=8, unroll=1, clock=clock),
        KernelSpec("lut", ii=1, depth=16, unroll=cfg.n_lut_pes,
                   clock=clock),
        KernelSpec("scan", ii=1, depth=24, unroll=cfg.n_adc_pes,
                   clock=clock),
        KernelSpec("topk", ii=1, depth=8, unroll=1, clock=clock),
    ]
    works = [coarse_work, select_work, lut_work, candidates, 64]

    sim = Simulator()
    streams = [Stream(sim, 2) for _ in range(len(stages) + 1)]
    queries = [
        Burst(payload=q, count=works[0]) for q in range(n_queries)
    ]
    Source(sim, streams[0], queries)
    for stage_index, (spec, inp, out) in enumerate(
        zip(stages, streams[:-1], streams[1:])
    ):
        next_work = works[stage_index + 1] if stage_index + 1 < len(works) \
            else 1

        def relabel(burst, next_work=next_work):
            return Burst(payload=burst.payload, count=next_work)

        BurstKernel(sim, spec, relabel, inp, out)
    sink = Sink(sim, streams[-1])
    sim.run()
    return accel, sink


def test_event_pipeline_latency_matches_stage_model():
    accel, sink = _build_event_pipeline(n_queries=1)
    analytic = accel.stage_times(_NPROBE)
    simulated = sink.done_at_ps / 1e12
    # The event pipeline additionally pays each stage's fill depth
    # (~72 cycles here), which the analytic model folds into its coarse
    # constants; the two agree within that margin.
    assert simulated >= analytic.latency_s
    assert simulated == pytest.approx(analytic.latency_s, rel=0.3)


def test_event_pipeline_throughput_matches_bottleneck():
    accel, sink = _build_event_pipeline(n_queries=40)
    analytic = accel.stage_times(_NPROBE)
    simulated_total = sink.done_at_ps / 1e12
    expected = analytic.latency_s + 39 * analytic.bottleneck_s
    assert simulated_total == pytest.approx(expected, rel=0.2)
    assert sink.items > 0


def test_functional_results_unaffected_by_timing_model():
    accel = FannsAccelerator(_INDEX.shape, _CONFIG)
    out = accel.search(_INDEX, _DS.queries, k=5, nprobe=_NPROBE)
    want = _INDEX.search(_DS.queries, 5, _NPROBE)
    assert np.array_equal(out.ids, want)
