#!/usr/bin/env python3
"""Use Case II — FANNS: accelerated vector search with hardware co-design.

Builds an IVF-PQ index over a clustered synthetic dataset, measures the
recall/QPS trade-off of the FPGA accelerator against the CPU baseline,
then lets the hardware generator pick the best feasible accelerator
configuration on an Alveo U55C for a recall target (Figure 3 of the
tutorial).

Run:  python examples/vector_search.py
"""

from repro.bench import ResultTable
from repro.core import ALVEO_U55C
from repro.fanns import (
    CpuAnnSearcher,
    FannsAccelerator,
    HardwareGenerator,
    SearchStats,
    build_ivfpq,
    recall_at_k,
)
from repro.workloads import clustered_dataset

K = 10


# The functional index is small (it must train in seconds); LIST_SCALE
# models deployment-scale inverted lists (paper datasets: 1e8-1e9
# vectors).  Recall comes from the functional index; timing behaves as
# if each probed list were LIST_SCALE times longer on both sides.
LIST_SCALE = 2_000


def main() -> None:
    print("generating dataset and training IVF-PQ index...")
    dataset = clustered_dataset(
        n=20_000, dim=32, n_queries=100, gt_k=K, n_clusters=64,
        cluster_std=0.25, seed=13,
    )
    index = build_ivfpq(dataset.base, nlist=256, m=16, ksub=256, seed=13)
    print(
        f"functional index: {index.shape.n_vectors:,} vectors; modeled "
        f"scale: {index.shape.n_vectors * LIST_SCALE:,} vectors"
    )
    accel = FannsAccelerator(index.shape, list_scale=LIST_SCALE)
    cpu = CpuAnnSearcher(index.shape, list_scale=LIST_SCALE)

    sweep = ResultTable(
        "QPS vs recall@10 (FPGA accelerator vs CPU IVF-PQ)",
        ("nprobe", "recall@10", "FPGA QPS", "CPU QPS",
         "FPGA latency us", "CPU latency us"),
    )
    for nprobe in (1, 2, 4, 8, 16, 32, 64):
        # One search; both engines price its work counters.
        stats = SearchStats()
        ids = index.search(dataset.queries, K, nprobe, stats=stats)
        fpga_out = accel.price(nprobe, stats.n_queries)
        cpu_out = cpu.price(stats)
        recall = recall_at_k(ids, dataset.ground_truth)
        sweep.add(
            nprobe,
            round(recall, 3),
            fpga_out.qps,
            cpu_out.qps,
            fpga_out.query_latency_s * 1e6,
            cpu_out.query_latency_s * 1e6,
        )
    sweep.note("one shared search per row: same algorithm, different hardware")
    sweep.show()

    print("running the hardware generator (design-space exploration)...")
    generator = HardwareGenerator(
        index, dataset.queries, dataset.ground_truth, k=K,
        device=ALVEO_U55C, list_scale=LIST_SCALE,
    )
    targets = ResultTable(
        "Best feasible U55C design per recall target",
        ("recall target", "nprobe", "achieved recall", "QPS",
         "latency us", "ADC PEs", "HBM channels"),
    )
    for target in (0.5, 0.7, 0.8, 0.9):
        best, points = generator.explore(recall_target=target)
        if best is None:
            targets.add(target, "-", "unreachable", 0.0, 0.0, "-", "-")
            continue
        targets.add(
            target,
            best.nprobe,
            round(best.recall, 3),
            best.qps,
            best.latency_s * 1e6,
            best.config.n_adc_pes,
            best.config.n_hbm_channels,
        )
    targets.note(
        f"{len(generator._recall_cache)} recall evaluations, "
        "one per distinct nprobe (cached)"
    )
    targets.show()


if __name__ == "__main__":
    main()
