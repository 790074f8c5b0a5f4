"""FleetRec: recommendation inference on a hybrid GPU-FPGA cluster.

FleetRec (KDD 2021, the tutorial's third-use-case companion system)
disaggregates the two inference stages onto the hardware each prefers:
FPGA nodes serve the memory-bound embedding lookups out of HBM, GPU
nodes run the compute-bound DNN, and a network carries the gathered
feature vectors between them.  The point is *independent scaling*: big
MLPs stop starving the lookup pipeline and vice versa.

:class:`GpuModel` is a roofline GPU (tensor-core FLOP/s, HBM bandwidth,
kernel-launch latency); :class:`FleetRecCluster` composes lookup nodes,
GPU nodes and the fabric into a staged pipeline.  Like
:class:`~repro.microrec.accelerator.MicroRecAccelerator`, it is built
from a :class:`~repro.workloads.traces.RecModelSpec` and prices a batch
from its size alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..network.fabric import SwitchedFabric
from ..network.protocol import ProtocolModel, fpga_tcp
from ..workloads.traces import RecModelSpec
from .accelerator import MicroRecAccelerator, MicroRecConfig

__all__ = ["FleetRecCluster", "FleetRecOutcome", "GpuModel", "V100", "A100"]


@dataclass(frozen=True)
class GpuModel:
    """A roofline GPU for dense inference."""

    name: str
    flops: float                  # dense fp16/fp32 MAC/s sustained
    hbm_bandwidth: float          # bytes/s
    kernel_launch_s: float = 5e-6

    def __post_init__(self) -> None:
        if self.flops <= 0 or self.hbm_bandwidth <= 0:
            raise ValueError("rates must be positive")
        if self.kernel_launch_s < 0:
            raise ValueError("launch latency must be >= 0")

    def mlp_time_s(self, macs: int, weight_bytes: int, batch: int) -> float:
        """Batched MLP time: launch + max(compute, weight traffic).

        Weights are re-read per batch (they exceed L2 for production
        models); activations are negligible next to them.
        """
        if batch < 1:
            raise ValueError("batch must be >= 1")
        compute = batch * macs / self.flops
        memory = weight_bytes / self.hbm_bandwidth
        return self.kernel_launch_s + max(compute, memory)


V100 = GpuModel(name="V100", flops=14e12, hbm_bandwidth=900e9)
A100 = GpuModel(name="A100", flops=78e12, hbm_bandwidth=1555e9)


@dataclass(frozen=True)
class FleetRecOutcome:
    """The staged-pipeline timing of one batch."""

    lookup_s: float     # FPGA tier, for the batch
    network_s: float    # feature shipping, for the batch
    dnn_s: float        # GPU tier, for the batch
    latency_s: float    # one inference end to end
    batch_time_s: float
    qps: float


class FleetRecCluster:
    """``n_lookup_nodes`` FPGA lookup nodes + ``n_gpu_nodes`` GPUs."""

    def __init__(
        self,
        spec: RecModelSpec,
        n_lookup_nodes: int,
        n_gpu_nodes: int,
        gpu: GpuModel = V100,
        config: MicroRecConfig = MicroRecConfig(),
        protocol: ProtocolModel | None = None,
    ) -> None:
        if n_lookup_nodes < 1 or n_gpu_nodes < 1:
            raise ValueError("need at least one node per tier")
        self.n_lookup_nodes = n_lookup_nodes
        self.n_gpu_nodes = n_gpu_nodes
        self.gpu = gpu
        # Each lookup node serves a slice of the tables; we model the
        # tier with one accelerator handling 1/N of the lookups.
        self._lookup_node = MicroRecAccelerator(spec, config=config)
        self.fabric = SwitchedFabric(
            protocol or fpga_tcp(), n_lookup_nodes + n_gpu_nodes
        )
        self.mlp = self._lookup_node.mlp
        self._feature_bytes = spec.concat_width * 4

    def _lookup_tier_s(self, batch: int) -> float:
        per_node_batch = math.ceil(batch / self.n_lookup_nodes)
        return self._lookup_node.lookup_time_s(per_node_batch)

    def _network_s(self, batch: int) -> float:
        nbytes = batch * self._feature_bytes
        share = math.ceil(nbytes / self.n_lookup_nodes)
        return self.fabric.message_ps(0, self.n_lookup_nodes, share) / 1e12

    def _gpu_tier_s(self, batch: int) -> float:
        per_gpu = math.ceil(batch / self.n_gpu_nodes)
        return self.gpu.mlp_time_s(
            self.mlp.n_macs, self.mlp.weight_nbytes, per_gpu
        )

    def price(self, batch: int) -> FleetRecOutcome:
        """Modeled timing of ``batch`` inferences through lookup tier ->
        network -> GPU tier."""
        if batch < 1:
            raise ValueError("batch must contain at least one inference")
        lookup_s = self._lookup_tier_s(batch)
        network_s = self._network_s(batch)
        dnn_s = self._gpu_tier_s(batch)
        latency = (
            self._lookup_tier_s(1) + self._network_s(1) + self._gpu_tier_s(1)
        )
        batch_time = max(lookup_s, network_s, dnn_s) + min(
            lookup_s, network_s, dnn_s
        )
        return FleetRecOutcome(
            lookup_s=lookup_s,
            network_s=network_s,
            dnn_s=dnn_s,
            latency_s=latency,
            batch_time_s=batch_time,
            qps=batch / batch_time,
        )
