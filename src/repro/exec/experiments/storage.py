"""Storage-system experiments: e17 (smart-NIC KV store), e18 (LSM
compaction offload)."""

from __future__ import annotations

from typing import Any

import numpy as np

from ...bench import ResultTable
from .base import ExperimentSpec, register

# -- E17: smart-NIC key-value serving (KV-Direct) ---------------------------

_E17_VALUE_BYTES = (16, 64, 256, 1024)


def _e17_ops(n):
    # One fixed draw: no e17 table moves with its seed.
    rng = np.random.default_rng(0)
    ops = []
    for i in range(n):
        key = int(rng.integers(0, 10_000))
        if i % 10 == 0:
            ops.append(("put", key, int(rng.integers(0, 1 << 30))))
        else:
            ops.append(("get", key, 0))
    return ops


def _e17_replay(ops):
    """The ops' results on a plain dict: the oracle for the hash table."""
    store: dict[int, int] = {}
    results = []
    for op, key, value in ops:
        if op == "put":
            store[key] = value
            results.append(value)
        else:
            results.append(store.get(key))
    return results


def e17_prepare() -> dict:
    """Run the ops once; every cell prices that one execution."""
    from ...kvstore import HashTable, run_ops

    ops = _e17_ops(20_000)
    table = HashTable(1 << 15, 8)
    assert run_ops(table, ops) == _e17_replay(ops), (
        "the KV ops match a dict replay"
    )
    return {"table": table, "n_ops": len(ops), "probes": table.bucket_probes}


def e17_cell(ctx: dict, config: dict, seed: int) -> dict:
    from ...kvstore import SmartNicKvServer, SoftwareKvServer

    value_bytes = config["value_bytes"]
    nic = SmartNicKvServer(
        ctx["table"], value_bytes=value_bytes, n_memory_channels=4,
    ).price(ctx["n_ops"], ctx["probes"])
    sw = SoftwareKvServer(ctx["table"], value_bytes=value_bytes).price(
        ctx["n_ops"], ctx["probes"]
    )
    return {
        "value_bytes": value_bytes,
        "nic_ops": nic.ops_per_sec,
        "sw_ops": sw.ops_per_sec,
        "gain": nic.ops_per_sec / sw.ops_per_sec,
        "nic_lat_us": nic.op_latency_s * 1e6,
        "sw_lat_us": sw.op_latency_s * 1e6,
    }


def e17_assemble(rows: list[dict]) -> list[ResultTable]:
    report = ResultTable(
        "E17: KV serving, smart NIC vs software server (90% GET)",
        ("value B", "NIC Mops/s", "SW Mops/s", "throughput x",
         "NIC lat us", "SW lat us"),
    )
    gains = []
    for row in rows:
        gains.append(row["gain"])
        report.add(
            row["value_bytes"], row["nic_ops"] / 1e6, row["sw_ops"] / 1e6,
            row["gain"], row["nic_lat_us"], row["sw_lat_us"],
        )
    assert min(gains) > 3, "NIC serving wins at every value size"
    assert max(gains) > 8, "order-of-magnitude regime exists"
    report.note("software server is capped by per-request kernel-stack work")
    return [report]


@register("e17")
def _e17_spec() -> ExperimentSpec:
    return ExperimentSpec(
        experiment="e17",
        title="smart-NIC KV store (KV-Direct)",
        grid=tuple({"value_bytes": v} for v in _E17_VALUE_BYTES),
        seeds=(0,),
        prepare=e17_prepare,
        cell=e17_cell,
        assemble=e17_assemble,
    )


# -- E18: LSM compaction offload (X-Engine) ---------------------------------

_E18_N_WRITES = 60_000_000
_E18_EXECUTORS = (
    "cpu 4 cores",
    "cpu 8 cores",
    "cpu 16 cores",
    "fpga 2 merge trees",
)


def e18_prepare() -> dict:
    """Measure real write amplification from the LSM store."""
    from ...lsm import LsmStore

    store = LsmStore(memtable_limit=512, level0_limit=4, fanout=4)
    rng = np.random.default_rng(3)
    n = 60_000
    keys = rng.integers(0, 20_000, size=n)
    values = rng.integers(0, 1 << 30, size=n)
    store.put_batch(keys, values)
    store.flush()
    assert store.write_amplification > 1.0, (
        "compaction rewrites data (write amplification > 1)"
    )
    assert store.n_live_keys == len(np.unique(keys)), (
        "every distinct key stays live"
    )
    return {
        "bytes_flushed": store.bytes_flushed,
        "compactions": len(store.compactions),
        "bytes_compacted": store.bytes_compacted,
        "wa": store.write_amplification,
        "live_keys": store.n_live_keys,
    }


def _e18_executor(name: str):
    from ...baselines import xeon_server
    from ...lsm import (
        CompactionExecutor,
        cpu_compaction_bandwidth,
        fpga_compaction_bandwidth,
    )

    if name == "fpga 2 merge trees":
        return CompactionExecutor(name, fpga_compaction_bandwidth(2), 0)
    cores = int(name.split()[1])
    cpu = xeon_server()
    return CompactionExecutor(
        name, cpu_compaction_bandwidth(cpu, cores), cores
    )


def e18_cell(ctx: dict, config: dict, seed: int) -> dict:
    if config["part"] == "trace":
        return {"part": "trace", **ctx}

    from ...lsm import run_offload_study

    executor = _e18_executor(config["executor"])
    result = run_offload_study(_E18_N_WRITES, ctx["wa"], executor)
    return {
        "part": "offload",
        "executor": config["executor"],
        # Carried so the E18b title can embed the measured WA from any
        # subset of offload rows.
        "wa": ctx["wa"],
        "writes_per_sec": result.sustained_writes_per_sec,
        "stall_pct": result.stall_fraction * 100,
        "total_s": result.total_time_s,
    }


def e18_assemble(rows: list[dict]) -> list[ResultTable]:
    tables: list[ResultTable] = []
    trace = [r for r in rows if r["part"] == "trace"]
    offload = [r for r in rows if r["part"] == "offload"]
    if trace:
        row = trace[0]
        report = ResultTable(
            "E18a: LSM trace (real store, 60k writes, 20k key space)",
            ("metric", "value"),
        )
        report.add("flushes (bytes)", row["bytes_flushed"])
        report.add("compactions", row["compactions"])
        report.add("compacted (bytes)", row["bytes_compacted"])
        report.add("write amplification", row["wa"])
        report.add("live keys", row["live_keys"])
        tables.append(report)
    if offload:
        wa = offload[0]["wa"]
        report = ResultTable(
            f"E18b: sustained writes under compaction (WA={wa:.1f})",
            ("executor", "M writes/s", "stall %", "total s"),
        )
        rates = {}
        for row in offload:
            rates[row["executor"]] = row["writes_per_sec"]
            report.add(row["executor"], row["writes_per_sec"] / 1e6,
                       row["stall_pct"], row["total_s"])
        assert rates["fpga 2 merge trees"] == max(rates.values()), \
            "offload sustains the highest ingest"
        report.note("fpga keeps all foreground cores AND drains at "
                    "19.2 GB/s")
        tables.append(report)
    return tables


@register("e18")
def _e18_spec() -> ExperimentSpec:
    grid = tuple(
        [{"part": "trace"}]
        + [{"part": "offload", "executor": name}
           for name in _E18_EXECUTORS]
    )
    return ExperimentSpec(
        experiment="e18",
        title="LSM compaction offload (X-Engine)",
        grid=grid,
        seeds=(3,),
        prepare=e18_prepare,
        cell=e18_cell,
        assemble=e18_assemble,
    )
