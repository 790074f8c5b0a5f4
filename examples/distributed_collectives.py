#!/usr/bin/env python3
"""Use Case IV — ACCL: collectives for a cluster of FPGAs.

An 8-node HACC-style rack allreduces gradient-sized buffers two ways:
with the collective engine on the FPGA NICs (ACCL) and staged through
the host CPUs (PCIe + kernel TCP).  Also shows the ring-vs-tree
algorithm crossover over message sizes.

Run:  python examples/distributed_collectives.py
"""

import numpy as np

from repro.accl import FpgaCluster, HostStagedCluster
from repro.bench import ResultTable

NODES = 8


def _buffers(n_floats: int, seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.random(n_floats) for _ in range(NODES)]


def main() -> None:
    fpga = FpgaCluster(NODES)
    host = HostStagedCluster(NODES)

    report = ResultTable(
        f"Allreduce on {NODES} nodes: FPGA-direct vs host-staged",
        ("message", "FPGA us", "host us", "speedup"),
    )
    for n_floats in (1 << 5, 1 << 10, 1 << 15, 1 << 20):
        buffers = _buffers(n_floats)
        f = fpga.allreduce(buffers)
        h = host.allreduce(buffers)
        label = f"{buffers[0].nbytes:,} B"
        report.add(label, f.time_s * 1e6, h.time_s * 1e6, h.time_s / f.time_s)
    report.note("host staging pays 2x PCIe + kernel TCP per step")
    report.show()

    crossover = ResultTable(
        "Ring vs tree allreduce (FPGA cluster)",
        ("message", "ring us", "tree us", "winner"),
    )
    for n_floats in (NODES, 1 << 10, 1 << 14, 1 << 18, 1 << 21):
        buffers = _buffers(n_floats)
        ring = fpga.allreduce(buffers, algorithm="ring")
        tree = fpga.allreduce(buffers, algorithm="tree")
        assert np.allclose(ring.buffers[0], tree.buffers[0])
        winner = "ring" if ring.time_s < tree.time_s else "tree"
        crossover.add(
            f"{buffers[0].nbytes:,} B",
            ring.time_s * 1e6, tree.time_s * 1e6, winner,
        )
    crossover.note("tree: 2 log2(P) full-message steps; ring: 2(P-1) of n/P")
    crossover.show()

    # A tree broadcast, functionally verified.
    buffers = _buffers(1 << 12, seed=3)
    bcast = fpga.broadcast(buffers, root=2)
    assert all((b == buffers[2]).all() for b in bcast.buffers)
    print(
        f"broadcast {bcast.time_s * 1e6:.1f} us "
        f"({NODES} nodes, {buffers[0].nbytes:,} B each)"
    )


if __name__ == "__main__":
    main()
