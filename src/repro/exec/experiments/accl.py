"""ACCL experiments (Use Case IV): e10 (collectives vs host-staged),
e11 (allreduce scaling and ring/tree crossover)."""

from __future__ import annotations

from typing import Any

from ...bench import ResultTable
from .base import ExperimentSpec, register

# Every ACCL cell prices float64 payloads from their sizes alone.
_FLOAT_BYTES = 8

# -- E10: collective latency vs message size (Figure 1) ----------------------

_E10_NODES = 8
_E10_SIZES = (1 << 8, 1 << 12, 1 << 16, 1 << 20, 1 << 23)  # bytes per node


def _e10_message_bytes(nbytes: int) -> int:
    """The float64 payload per node for a nominal ``nbytes``: at least
    one float per node, so the ring allreduce splits it evenly."""
    return max(_E10_NODES, nbytes // _FLOAT_BYTES) * _FLOAT_BYTES


def e10_cell(ctx: Any, config: dict, seed: int) -> dict:
    from ...accl import FpgaCluster, HostStagedCluster

    fpga = FpgaCluster(_E10_NODES)
    host = HostStagedCluster(_E10_NODES)
    message_bytes = _e10_message_bytes(config["nbytes"])
    return {
        "nbytes": config["nbytes"],
        "message_bytes": message_bytes,
        "bcast_fpga_s": float(fpga.broadcast_time_s(message_bytes)),
        "bcast_host_s": float(host.broadcast_time_s(message_bytes)),
        "allreduce_fpga_s": float(fpga.allreduce_time_s(message_bytes)),
        "allreduce_host_s": float(host.allreduce_time_s(message_bytes)),
    }


def e10_assemble(rows: list[dict]) -> list[ResultTable]:
    report = ResultTable(
        f"E10: collectives on {_E10_NODES} nodes, FPGA-direct vs "
        "host-staged",
        ("collective", "message B", "FPGA us", "host us", "speedup"),
    )
    small_gain = large_gain = None
    for row in rows:
        report.add("broadcast", row["message_bytes"],
                   row["bcast_fpga_s"] * 1e6, row["bcast_host_s"] * 1e6,
                   row["bcast_host_s"] / row["bcast_fpga_s"])
        gain = row["allreduce_host_s"] / row["allreduce_fpga_s"]
        if row["nbytes"] == _E10_SIZES[0]:
            small_gain = gain
        if row["nbytes"] == _E10_SIZES[-1]:
            large_gain = gain
        report.add("allreduce", row["message_bytes"],
                   row["allreduce_fpga_s"] * 1e6,
                   row["allreduce_host_s"] * 1e6, gain)
    assert small_gain is not None and large_gain is not None, (
        "E10 covers the smallest and largest messages"
    )
    assert small_gain > 3, "stack overheads dominate small messages"
    assert large_gain > 1.5, "PCIe staging still costs at bulk sizes"
    assert small_gain > large_gain, "advantage peaks at small messages"
    return [report]


@register("e10")
def _e10_spec() -> ExperimentSpec:
    return ExperimentSpec(
        experiment="e10",
        title="ACCL collectives vs host-staged (Fig 1)",
        grid=tuple({"nbytes": n} for n in _E10_SIZES),
        seeds=(0,),
        prepare=lambda: None,
        cell=e10_cell,
        assemble=e10_assemble,
    )


# -- E11: allreduce scaling and ring/tree crossover --------------------------

_E11_NODES = (2, 4, 8, 16, 32)
_E11_SMALL_FLOATS = 1 << 7
_E11_LARGE_FLOATS = 1 << 20
_E11_CROSSOVER_P = 16
_E11_CROSSOVER_SIZES = (16, 1 << 10, 1 << 14, 1 << 18, 1 << 21)


def e11_cell(ctx: Any, config: dict, seed: int) -> dict:
    """One scaling point (cluster size) or one crossover point (payload)."""
    from ...accl import FpgaCluster

    if config["kind"] == "scaling":
        p = config["p"]
        cluster = FpgaCluster(p)
        small = _E11_SMALL_FLOATS * _FLOAT_BYTES
        large = _E11_LARGE_FLOATS * _FLOAT_BYTES
        return {
            "kind": "scaling",
            "p": p,
            "tree_small_s": float(cluster.allreduce_time_s(small, "tree")),
            "ring_small_s": float(cluster.allreduce_time_s(small, "ring")),
            "tree_large_s": float(cluster.allreduce_time_s(large, "tree")),
            "ring_large_s": float(cluster.allreduce_time_s(large, "ring")),
        }
    cluster = FpgaCluster(_E11_CROSSOVER_P)
    nbytes = config["n_floats"] * _FLOAT_BYTES
    ring_s = float(cluster.allreduce_time_s(nbytes, "ring"))
    tree_s = float(cluster.allreduce_time_s(nbytes, "tree"))
    return {
        "kind": "crossover",
        "n_floats": config["n_floats"],
        "ring_s": ring_s,
        "tree_s": tree_s,
        "winner": "ring" if ring_s < tree_s else "tree",
    }


def e11_assemble(rows: list[dict]) -> list[ResultTable]:
    """Rebuild the E11a/E11b tables (and shape claims) from cell dicts."""
    scaling = [r for r in rows if r["kind"] == "scaling"]
    crossover = [r for r in rows if r["kind"] == "crossover"]
    report_a = ResultTable(
        "E11a: allreduce time vs cluster size (FPGA cluster)",
        ("nodes", "tree small us", "ring small us",
         "tree 8MiB us", "ring 8MiB us"),
    )
    tree_small_series, ring_large_series = [], []
    for row in scaling:
        tree_small_series.append(row["tree_small_s"])
        ring_large_series.append(row["ring_large_s"])
        report_a.add(
            row["p"], row["tree_small_s"] * 1e6, row["ring_small_s"] * 1e6,
            row["tree_large_s"] * 1e6, row["ring_large_s"] * 1e6,
        )
    if scaling:
        # Tree latency grows with log P.
        assert tree_small_series == sorted(tree_small_series), (
            "tree allreduce time grows with log P"
        )
        # Ring bandwidth time is near-flat: 32 nodes < 2.5x the 2-node time.
        assert ring_large_series[-1] < 2.5 * ring_large_series[0], (
            "rings bandwidth-optimal: 32 nodes < 2.5x the 2-node time"
        )

    report_b = ResultTable(
        "E11b: ring vs tree crossover (16 nodes)",
        ("floats/node", "ring us", "tree us", "winner"),
    )
    winners = []
    for row in crossover:
        winners.append(row["winner"])
        report_b.add(
            row["n_floats"], row["ring_s"] * 1e6, row["tree_s"] * 1e6,
            row["winner"],
        )
    if crossover:
        assert winners[0] == "tree" and winners[-1] == "ring", \
            "crossover between small and large payloads"
    return [report_a, report_b]


@register("e11")
def _e11_spec() -> ExperimentSpec:
    grid = tuple(
        [{"kind": "scaling", "p": p} for p in _E11_NODES]
        + [{"kind": "crossover", "n_floats": n} for n in _E11_CROSSOVER_SIZES]
    )
    return ExperimentSpec(
        experiment="e11",
        title="ACCL scaling and ring/tree crossover",
        grid=grid,
        seeds=(0,),
        prepare=lambda: None,
        cell=e11_cell,
        assemble=e11_assemble,
    )
