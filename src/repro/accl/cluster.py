"""FPGA cluster vs host-staged execution of collective schedules.

ACCL's claim is architectural: when the collective engine lives on the
FPGA next to its 100G NIC, a message is *wire + firmware*; when the
same FPGAs must communicate through their hosts, every message pays two
PCIe crossings and a kernel TCP stack, and reductions burn host CPU.
Both executors price the identical schedules from
:mod:`repro.accl.collectives`; the difference is purely the per-step
costing:

* :class:`FpgaCluster` — FPGA TCP protocol (EasyNet-class), reductions
  stream through fabric adders faster than the wire feeds them;
* :class:`HostStagedCluster` — kernel TCP plus 2x PCIe staging per
  step, reductions priced on the host CPU model.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..baselines.cpu import CpuModel, xeon_server
from ..memory.technologies import host_over_pcie3
from ..network.fabric import SwitchedFabric
from ..network.protocol import ProtocolModel, fpga_tcp, kernel_tcp
from .collectives import (
    CollectiveOutcome,
    allreduce_ring,
    allreduce_tree,
    broadcast_tree,
    ring_allreduce_schedule,
    tree_allreduce_schedule,
    tree_broadcast_schedule,
)

__all__ = ["FpgaCluster", "HostStagedCluster"]

_PS_PER_S = 1_000_000_000_000
# A 512-bit fabric adder at 300 MHz: 19.2 GB/s per node, above line rate.
_FPGA_REDUCE_BANDWIDTH = 19.2e9


class _ClusterBase:
    """Shared schedule-pricing machinery."""

    def __init__(self, n_nodes: int, protocol: ProtocolModel) -> None:
        if n_nodes < 1:
            raise ValueError("cluster needs at least one node")
        self.n_nodes = n_nodes
        self.fabric = SwitchedFabric(protocol, n_nodes)

    # -- per-step costing (each cluster defines ``_step_time_s``) ----------

    def _price(self, steps: list[list[tuple[int, int, int]]],
               reduction_bytes: list[int]) -> float:
        """Seconds to run a schedule's steps one after another."""
        reductions = reduction_bytes or [0] * len(steps)
        total = 0.0
        for step, red in zip(steps, reductions):
            total += self._step_time_s(step, red)
        return total

    def _check_count(self, buffers: list[np.ndarray]) -> None:
        if len(buffers) != self.n_nodes:
            raise ValueError(
                f"expected {self.n_nodes} buffers, got {len(buffers)}"
            )

    def _run(self, collective: Callable[..., CollectiveOutcome],
             buffers: list[np.ndarray], *root: int) -> CollectiveOutcome:
        self._check_count(buffers)
        outcome = collective(buffers, *root)
        outcome.time_s = self._price(
            outcome.steps, outcome.reduction_bytes_per_step
        )
        return outcome

    # -- collectives ----------------------------------------------------------

    def broadcast(self, buffers: list[np.ndarray],
                  root: int = 0) -> CollectiveOutcome:
        """Tree-broadcast the root buffer."""
        return self._run(broadcast_tree, buffers, root)

    def broadcast_time_s(self, nbytes: int) -> float:
        """Seconds to tree-broadcast ``nbytes`` from node 0, priced from
        sizes alone: equal to ``broadcast(buffers).time_s`` for any
        buffers of ``nbytes`` each."""
        return self._price(*tree_broadcast_schedule(self.n_nodes, 0, nbytes))

    def allreduce(self, buffers: list[np.ndarray],
                  algorithm: str = "ring") -> CollectiveOutcome:
        """Sum-allreduce; ``algorithm`` is 'ring' or 'tree'."""
        return self._run(_pick(_ALLREDUCES, algorithm)[0], buffers)

    def allreduce_time_s(self, nbytes: int, algorithm: str = "ring") -> float:
        """Seconds to allreduce ``nbytes`` per node, priced from sizes
        alone: equal to ``allreduce(buffers, algorithm).time_s`` for any
        buffers of ``nbytes`` each."""
        schedule = _pick(_ALLREDUCES, algorithm)[1]
        return self._price(*schedule(self.n_nodes, nbytes))


# Each allreduce algorithm: the collective and its size-only schedule.
_ALLREDUCES = {
    "ring": (allreduce_ring, ring_allreduce_schedule),
    "tree": (allreduce_tree, tree_allreduce_schedule),
}


def _pick(algorithms: dict, algorithm: str):
    if algorithm not in algorithms:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; have {sorted(algorithms)}"
        )
    return algorithms[algorithm]


class FpgaCluster(_ClusterBase):
    """FPGAs with on-card NICs running the collective engine (ACCL)."""

    def __init__(self, n_nodes: int,
                 protocol: ProtocolModel | None = None) -> None:
        super().__init__(n_nodes, protocol or fpga_tcp())

    def _step_time_s(self, transfers, reduction_bytes) -> float:
        wire_s = self.fabric.parallel_step_ps(transfers) / _PS_PER_S
        if not reduction_bytes:
            return wire_s
        per_node = reduction_bytes / max(1, self.n_nodes)
        reduce_s = per_node / _FPGA_REDUCE_BANDWIDTH
        # The adder streams on arriving data; only the excess over the
        # wire time (if any) is exposed.
        return max(wire_s, reduce_s)


class HostStagedCluster(_ClusterBase):
    """The same FPGAs communicating through their host CPUs.

    Every step's data crosses PCIe twice (device->host at the sender,
    host->device at the receiver) and traverses the kernel TCP stack;
    reductions run on the host CPU.
    """

    def __init__(
        self,
        n_nodes: int,
        protocol: ProtocolModel | None = None,
        cpu: CpuModel | None = None,
    ) -> None:
        super().__init__(n_nodes, protocol or kernel_tcp())
        self.cpu = cpu or xeon_server()
        self._pcie = host_over_pcie3()

    def _step_time_s(self, transfers, reduction_bytes) -> float:
        wire_s = self.fabric.parallel_step_ps(transfers) / _PS_PER_S
        if not transfers:
            return wire_s
        busiest = max(
            max((n for _, _, n in transfers), default=0), 0
        )
        staging_s = 2 * self._pcie.stream_time_ps(busiest) / _PS_PER_S
        reduce_s = 0.0
        if reduction_bytes:
            per_node = reduction_bytes / max(1, self.n_nodes)
            # Read two operands, write one result through host DRAM.
            reduce_s = self.cpu.stream_time_s(int(3 * per_node))
        return wire_s + staging_s + reduce_s
