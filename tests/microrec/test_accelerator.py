"""Tests for the MicroRec accelerator and its CPU baseline."""

import tracemalloc

import numpy as np
import pytest

from repro.microrec.accelerator import MicroRecAccelerator, MicroRecConfig
from repro.microrec.cartesian import CartesianPlan, plan_cartesian
from repro.microrec.cpu_baseline import CpuRecommender
from repro.microrec.embedding import EmbeddingTables
from repro.workloads.traces import (
    RecModelSpec,
    lookup_trace,
    production_like_model,
)

_SPEC = production_like_model(n_tables=20, max_rows=200_000, seed=7)
_TABLES = EmbeddingTables(_SPEC, seed=7)
_TRACE = lookup_trace(_SPEC, batch_size=16, seed=8)


def test_config_validation():
    with pytest.raises(ValueError):
        MicroRecConfig(sram_budget_bytes=-1)
    with pytest.raises(ValueError):
        MicroRecConfig(n_hbm_channels=0)
    with pytest.raises(ValueError):
        MicroRecConfig(dnn_dsp_macs=0)
    with pytest.raises(ValueError):
        MicroRecConfig(sram_access_cycles=0)


def test_placement_small_tables_go_to_sram():
    accel = MicroRecAccelerator(_SPEC, seed=1)
    sizes = accel.plan.combined_table_bytes()
    if accel.placement.sram_tables and accel.placement.hbm_tables:
        biggest_sram = max(sizes[i] for i in accel.placement.sram_tables)
        smallest_hbm = min(sizes[i] for i in accel.placement.hbm_tables)
        assert biggest_sram <= smallest_hbm
    assert accel.placement.sram_bytes <= accel.config.sram_budget_bytes


def test_zero_sram_budget_puts_everything_in_hbm():
    config = MicroRecConfig(sram_budget_bytes=0)
    accel = MicroRecAccelerator(_SPEC, config=config, seed=1)
    assert accel.placement.sram_tables == ()
    assert len(accel.placement.hbm_tables) == accel.plan.n_lookups


def test_fpga_and_cpu_logits_identical():
    accel = MicroRecAccelerator(_SPEC, seed=3)
    cpu = CpuRecommender(_SPEC, seed=3)
    a = accel.infer(_TABLES, _TRACE)
    c = cpu.infer(_TABLES, _TRACE)
    assert np.allclose(a.logits, c.logits, rtol=1e-5, atol=1e-5)


def test_cartesian_plan_preserves_logits():
    plan = plan_cartesian(_SPEC, byte_budget=4 * _SPEC.total_embedding_bytes)
    assert plan.lookups_saved >= 1
    plain = MicroRecAccelerator(_SPEC, seed=3)
    combined = MicroRecAccelerator(_SPEC, plan=plan, seed=3)
    assert np.array_equal(
        plain.infer(_TABLES, _TRACE).logits,
        combined.infer(_TABLES, _TRACE).logits,
    )


def test_combined_tables_are_sized_not_allocated():
    """Capacity overhead is arithmetic: deploying and querying a plan
    whose combined tables would take >= 200 MB allocates a small
    fraction of that."""
    spec = RecModelSpec(table_rows=(2000, 2000, 50), embedding_dim=8)
    plan = CartesianPlan(spec=spec, groups=((0, 1), (2,)))
    assert plan.total_bytes >= 200_000_000
    tables = EmbeddingTables(spec, seed=4)
    trace = lookup_trace(spec, batch_size=64, seed=5)
    tracemalloc.start()
    try:
        accel = MicroRecAccelerator(spec, plan=plan, seed=4)
        logits = accel.infer(tables, trace).logits
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * plan.total_bytes
    plain = MicroRecAccelerator(spec, seed=4).infer(tables, trace).logits
    assert np.array_equal(logits, plain)


def test_cartesian_reduces_hbm_lookups_and_lookup_time():
    config = MicroRecConfig(sram_budget_bytes=0)  # isolate the HBM effect
    plain = MicroRecAccelerator(_SPEC, config=config, seed=1)
    plan = plan_cartesian(_SPEC, byte_budget=4 * _SPEC.total_embedding_bytes)
    combined = MicroRecAccelerator(_SPEC, plan=plan, config=config, seed=1)
    assert combined.lookups_per_inference < plain.lookups_per_inference
    assert combined.hbm_lookups_per_inference <= plain.hbm_lookups_per_inference


def test_fpga_latency_order_of_magnitude_below_cpu():
    """MicroRec's headline claim."""
    accel = MicroRecAccelerator(_SPEC, seed=2)
    cpu = CpuRecommender(_SPEC, seed=2)
    a = accel.infer(_TABLES, _TRACE[:1])
    c = cpu.infer(_TABLES, _TRACE[:1])
    assert a.latency_s < c.latency_s / 5


def test_more_hbm_channels_never_slower():
    config8 = MicroRecConfig(sram_budget_bytes=0, n_hbm_channels=8)
    config32 = MicroRecConfig(sram_budget_bytes=0, n_hbm_channels=32)
    narrow = MicroRecAccelerator(_SPEC, config=config8, seed=1)
    wide = MicroRecAccelerator(_SPEC, config=config32, seed=1)
    assert wide.lookup_time_s(32) <= narrow.lookup_time_s(32)


def test_lookup_time_grows_with_batch():
    accel = MicroRecAccelerator(_SPEC, seed=1)
    assert accel.lookup_time_s(64) > accel.lookup_time_s(1)
    with pytest.raises(ValueError):
        accel.lookup_time_s(0)


def test_infer_outcome_consistency():
    accel = MicroRecAccelerator(_SPEC, seed=1)
    out = accel.infer(_TABLES, _TRACE)
    assert out.logits.shape == (16,)
    assert out.batch_time_s >= max(out.lookup_s, out.dnn_s)
    assert out.latency_s > 0
    assert out.qps == pytest.approx(16 / out.batch_time_s)
    with pytest.raises(ValueError):
        accel.infer(_TABLES, _TRACE[:0])


def test_price_is_what_infer_charges_and_draws_no_weights():
    accel = MicroRecAccelerator(_SPEC, seed=1)
    cpu = CpuRecommender(_SPEC, seed=1)
    timing, cpu_timing = accel.price(16), cpu.price(16)
    assert accel.mlp._params is None and cpu.mlp._params is None
    out, cpu_out = accel.infer(_TABLES, _TRACE), cpu.infer(_TABLES, _TRACE)
    for field in ("lookup_s", "dnn_s", "latency_s", "batch_time_s", "qps"):
        assert getattr(out, field) == getattr(timing, field)
        assert getattr(cpu_out, field) == getattr(cpu_timing, field)
    with pytest.raises(ValueError):
        accel.price(0)
    with pytest.raises(ValueError):
        cpu.price(0)


def test_plan_for_wrong_spec_rejected():
    other = RecModelSpec(table_rows=(5, 5), embedding_dim=4)
    plan = plan_cartesian(other, 0)
    with pytest.raises(ValueError):
        MicroRecAccelerator(_SPEC, plan=plan)


def test_infer_rejects_tables_of_another_spec():
    accel = MicroRecAccelerator(_SPEC, seed=1)
    cpu = CpuRecommender(_SPEC, seed=1)
    other = production_like_model(n_tables=20, max_rows=1_000, seed=8)
    with pytest.raises(ValueError):
        accel.infer(EmbeddingTables(other, seed=8), _TRACE)
    with pytest.raises(ValueError):
        cpu.infer(EmbeddingTables(other, seed=8), _TRACE)


def test_cpu_working_set_counts_spec_bytes():
    """Half-width values halve the working set the CPU prices: a model
    that fits the LLC only at 2 bytes per value gets LLC latency."""
    from repro.baselines.cpu import CpuModel

    spec = RecModelSpec(table_rows=(1_000, 1_000), embedding_dim=16,
                        bytes_per_value=2)
    cpu_model = CpuModel(name="small-llc",
                         llc_bytes=spec.total_embedding_bytes)
    tables = EmbeddingTables(spec, seed=1)
    assert tables.total_nbytes > cpu_model.llc_bytes  # stored as float32
    cpu = CpuRecommender(spec, cpu=cpu_model, seed=1)
    out = cpu.infer(tables, lookup_trace(spec, batch_size=8, seed=2))
    in_llc = cpu_model.random_access_time_s(
        8 * spec.n_tables, spec.embedding_bytes,
        working_set_bytes=spec.total_embedding_bytes,
    )
    assert out.lookup_s == in_llc
    assert out.lookup_s < cpu_model.random_access_time_s(
        8 * spec.n_tables, spec.embedding_bytes,
        working_set_bytes=tables.total_nbytes,
    )


def test_cpu_outcome_consistency():
    cpu = CpuRecommender(_SPEC, seed=1)
    out = cpu.infer(_TABLES, _TRACE)
    assert out.logits.shape == (16,)
    assert out.batch_time_s == pytest.approx(out.lookup_s + out.dnn_s)
    assert out.latency_s > 0
    with pytest.raises(ValueError):
        cpu.infer(_TABLES, _TRACE[:0])
