"""Distributed FANNS: sharded vector search over an FPGA cluster.

The tutorial's Figure-1 rack and Use Case IV infrastructure exist so
systems like FANNS can scale past one card.  The standard recipe for
distributed IVF (also used by FleetRec's retrieval tier):

* the coarse quantizer (centroids) is replicated on every node;
* inverted lists are partitioned round-robin across nodes;
* a query broadcasts to all nodes, each scans the probed lists *it
  owns* and returns its local top-k;
* the root gathers ``P`` candidate lists and merges — which yields
  exactly the single-node result, because the union of scanned
  candidates is identical and every cut uses the same total order.

Latency = slowest node + gather + merge; throughput scales with nodes
because every node scans ~1/P of the candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..accl.cluster import FpgaCluster
from ..core.clocking import FABRIC_300MHZ
from ..core.device import ALVEO_U55C, Device
from .accelerator import FannsAccelerator, FannsConfig
from .ivf import IVFPQIndex

__all__ = ["DistributedFanns", "DistributedSearchOutcome"]

_RESULT_ENTRY_BYTES = 12  # 8 B id + 4 B distance


@dataclass(frozen=True)
class DistributedSearchOutcome:
    """Results plus the latency/throughput model of a sharded search."""

    ids: np.ndarray
    node_latency_s: float     # slowest shard's accelerator latency
    gather_s: float           # shipping local top-k to the root
    merge_s: float            # root-side k-way merge
    query_latency_s: float
    qps: float


class DistributedFanns:
    """One logical index served by a cluster of FANNS accelerators."""

    def __init__(
        self,
        index: IVFPQIndex,
        n_nodes: int,
        config: FannsConfig = FannsConfig(),
        device: Device = ALVEO_U55C,
        list_scale: int = 1,
        cluster: FpgaCluster | None = None,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("need at least one node")
        self.index = index
        self.n_nodes = n_nodes
        self.cluster = cluster or FpgaCluster(n_nodes)
        # Each node owns lists l with l % n_nodes == node, every list at
        # full deployment length; the nodes are identical, so one
        # accelerator prices them all.
        self._node_accel = FannsAccelerator(
            index.shape, config, device, list_scale=list_scale
        )

    def _shards(self, lists: np.ndarray) -> list[np.ndarray]:
        """``lists`` split by owner: node ``n`` owns ``l % n_nodes == n``."""
        return [lists[lists % self.n_nodes == n] for n in range(self.n_nodes)]

    def shard_list_counts(self) -> list[int]:
        """How many inverted lists each node owns."""
        return [len(p) for p in self._shards(np.arange(self.index.nlist))]

    def search(self, queries: np.ndarray, k: int,
               nprobe: int) -> DistributedSearchOutcome:
        """Sharded search: each node scans the probed lists it owns and
        cuts a local top-k, the root merges; ids match the single node."""
        ids = self.index.search(queries, k, nprobe, shards=self._shards)

        # Performance: every node scans its ~1/P share of the probed
        # lists (round-robin ownership spreads any probe set evenly).
        per_node = min(math.ceil(nprobe / self.n_nodes), self.index.nlist)
        stages = self._node_accel.stage_times(per_node)
        node_latency = stages.latency_s
        # Gather: P-1 nodes ship k entries to the root in one step.
        gather_transfers = [
            (node, 0, k * _RESULT_ENTRY_BYTES)
            for node in range(1, self.n_nodes)
        ]
        gather_s = self.cluster.fabric.parallel_step_ps(gather_transfers) / 1e12
        # Root merge: a k-way selection over P*k entries at one per cycle.
        merge_s = FABRIC_300MHZ.cycles_to_seconds(self.n_nodes * k)
        latency = node_latency + gather_s + merge_s
        bottleneck = max(stages.bottleneck_s, gather_s, merge_s)
        return DistributedSearchOutcome(
            ids=ids,
            node_latency_s=node_latency,
            gather_s=gather_s,
            merge_s=merge_s,
            query_latency_s=latency,
            qps=1.0 / bottleneck,
        )
