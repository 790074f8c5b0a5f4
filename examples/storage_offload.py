#!/usr/bin/env python3
"""Introduction deployments: LSM compaction offload and smart-NIC KV.

The paper's introduction motivates FPGAs with production deployments:
Alibaba's X-Engine offloads LSM compactions to keep latency SLAs, and
Microsoft's KV-Direct serves key-value requests from an FPGA NIC.
This example runs both reproductions end to end.

Run:  python examples/storage_offload.py
"""

import numpy as np

from repro.baselines import xeon_server
from repro.bench import ResultTable
from repro.kvstore import HashTable, SmartNicKvServer, SoftwareKvServer
from repro.lsm import (
    CompactionExecutor,
    LsmStore,
    cpu_compaction_bandwidth,
    fpga_compaction_bandwidth,
    run_offload_study,
)


def lsm_demo() -> None:
    # 1. Build a real LSM store and measure its write amplification.
    store = LsmStore(memtable_limit=512, level0_limit=4, fanout=4)
    rng = np.random.default_rng(5)
    n = 40_000
    store.put_batch(
        rng.integers(0, 15_000, size=n), rng.integers(0, 1 << 30, size=n)
    )
    store.flush()
    wa = store.write_amplification
    print(
        f"LSM trace: {n:,} writes -> {len(store.compactions)} compactions, "
        f"write amplification {wa:.2f}, {store.n_live_keys:,} live keys"
    )

    # 2. Replay a burst under CPU vs FPGA compaction.
    cpu = xeon_server()
    table = ResultTable(
        "Write burst under compaction (X-Engine scenario)",
        ("executor", "M writes/s", "stall %"),
    )
    executors = [
        CompactionExecutor("cpu 8 cores",
                           cpu_compaction_bandwidth(cpu, 8), 8),
        CompactionExecutor("cpu 16 cores",
                           cpu_compaction_bandwidth(cpu, 16), 16),
        CompactionExecutor("fpga merge trees",
                           fpga_compaction_bandwidth(2), 0),
    ]
    for executor in executors:
        result = run_offload_study(40_000_000, wa, executor)
        table.add(executor.name, result.sustained_writes_per_sec / 1e6,
                  result.stall_fraction * 100)
    table.show()


def kv_demo() -> None:
    rng = np.random.default_rng(6)
    ops = []
    for i in range(30_000):
        key = int(rng.integers(0, 50_000))
        if i % 10 == 0:
            ops.append(("put", key, int(rng.integers(0, 1 << 30))))
        else:
            ops.append(("get", key, 0))

    nic = SmartNicKvServer(HashTable(1 << 16, 8), value_bytes=64,
                           n_memory_channels=4)
    sw = SoftwareKvServer(HashTable(1 << 16, 8), value_bytes=64)
    nic_out = nic.serve(ops)
    sw_out = sw.serve(ops)
    assert nic_out.values == sw_out.values
    print(
        f"KV serving (90% GET, 64 B values): smart NIC "
        f"{nic_out.ops_per_sec / 1e6:.1f} Mops/s @ "
        f"{nic_out.op_latency_s * 1e6:.1f} us vs software "
        f"{sw_out.ops_per_sec / 1e6:.1f} Mops/s @ "
        f"{sw_out.op_latency_s * 1e6:.1f} us "
        f"({nic_out.ops_per_sec / sw_out.ops_per_sec:.0f}x throughput)"
    )


if __name__ == "__main__":
    lsm_demo()
    kv_demo()
