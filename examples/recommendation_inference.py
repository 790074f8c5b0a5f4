#!/usr/bin/env python3
"""Use Case III — MicroRec: low-latency recommendation inference.

Serves a production-shaped CTR model (47 embedding tables, 16-dim
embeddings, a 1024-512-256 MLP head) three ways: CPU baseline, plain
MicroRec (SRAM + HBM placement), and MicroRec with Cartesian-product
table combining — and prints the latency ladder behind the tutorial's
"one order of magnitude" claim (Figures 4-5).

Run:  python examples/recommendation_inference.py
"""

from repro.bench import ResultTable, speedup
from repro.microrec import (
    CpuRecommender,
    EmbeddingTables,
    MicroRecAccelerator,
    plan_cartesian,
)
from repro.workloads import lookup_trace, production_like_model

BATCH = 256


def main() -> None:
    spec = production_like_model(n_tables=47, max_rows=2_000_000, seed=21)
    print(
        f"model: {spec.n_tables} tables, "
        f"{spec.total_embedding_bytes / 1e6:.1f} MB of embeddings, "
        f"{spec.mlp_flops():,} MLP MACs/inference"
    )
    tables = EmbeddingTables(spec, seed=21)
    trace = lookup_trace(spec, batch_size=BATCH, seed=22)

    cpu = CpuRecommender(spec, seed=5)
    plain = MicroRecAccelerator(spec, seed=5)
    cartesian = MicroRecAccelerator(
        spec,
        plan=plan_cartesian(spec, byte_budget=3 * spec.total_embedding_bytes),
        seed=5,
    )

    cpu_out = cpu.infer(tables, trace)
    plain_out = plain.infer(tables, trace)
    cart_out = cartesian.infer(tables, trace)
    for name, out in (("plain", plain_out), ("cartesian", cart_out)):
        if not abs(out.logits - cpu_out.logits).max() < 1e-3:
            raise AssertionError(f"{name} logits diverge from CPU")

    report = ResultTable(
        f"CTR inference, batch={BATCH}",
        ("engine", "lookups/inf", "HBM lookups/inf",
         "latency us", "QPS", "speedup vs CPU"),
    )
    report.add("CPU (2-socket Xeon)", spec.n_tables, spec.n_tables,
               cpu_out.latency_s * 1e6, cpu_out.qps, 1.0)
    report.add(
        "MicroRec", plain.lookups_per_inference,
        plain.hbm_lookups_per_inference,
        plain_out.latency_s * 1e6, plain_out.qps,
        speedup(cpu_out.latency_s, plain_out.latency_s),
    )
    report.add(
        "MicroRec + Cartesian", cartesian.lookups_per_inference,
        cartesian.hbm_lookups_per_inference,
        cart_out.latency_s * 1e6, cart_out.qps,
        speedup(cpu_out.latency_s, cart_out.latency_s),
    )
    report.note(
        f"placement: {len(plain.placement.sram_tables)} tables in SRAM "
        f"({plain.placement.sram_bytes / 1e6:.1f} MB), "
        f"{len(plain.placement.hbm_tables)} in HBM"
    )
    report.note(
        f"Cartesian capacity overhead: "
        f"{cartesian.plan.capacity_overhead:.2f}x"
    )
    report.show()

    # Where Cartesian products really pay: more tables than channels and
    # no SRAM headroom, so every saved lookup is a saved HBM row cycle.
    from repro.microrec import MicroRecConfig

    constrained = MicroRecConfig(sram_budget_bytes=0, n_hbm_channels=8)
    ablation = ResultTable(
        "Cartesian ablation (8 HBM channels, no SRAM)",
        ("byte budget", "lookups/inf", "capacity overhead",
         "lookup stage us (batch)"),
    )
    for mult in (1.0, 1.5, 2.0, 4.0):
        plan = plan_cartesian(
            spec, byte_budget=int(mult * spec.total_embedding_bytes)
        )
        accel = MicroRecAccelerator(
            spec, plan=plan, config=constrained, seed=5
        )
        ablation.add(
            f"{mult:.1f}x",
            accel.lookups_per_inference,
            round(plan.capacity_overhead, 2),
            accel.lookup_time_s(BATCH) * 1e6,
        )
    ablation.note("fewer lookups -> fewer serialized HBM row cycles per channel")
    ablation.show()


if __name__ == "__main__":
    main()
