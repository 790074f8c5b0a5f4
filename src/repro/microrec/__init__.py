"""Use Case III — MicroRec: recommendation inference with Cartesian
products and HBM-banked embedding lookups (Jiang et al., MLSys 2021;
Figures 4-5 of the tutorial).
"""

from .accelerator import (
    BatchTiming,
    InferenceOutcome,
    MicroRecAccelerator,
    MicroRecConfig,
    Placement,
)
from .cartesian import CartesianPlan, plan_cartesian
from .cpu_baseline import CpuRecommender
from .dnn import Mlp, fpga_mlp_latency_s
from .embedding import EmbeddingTables
from .fleetrec import A100, FleetRecCluster, FleetRecOutcome, GpuModel, V100

__all__ = [
    "A100",
    "BatchTiming",
    "CartesianPlan",
    "CpuRecommender",
    "EmbeddingTables",
    "FleetRecCluster",
    "FleetRecOutcome",
    "GpuModel",
    "InferenceOutcome",
    "MicroRecAccelerator",
    "MicroRecConfig",
    "Mlp",
    "Placement",
    "V100",
    "fpga_mlp_latency_s",
    "plan_cartesian",
]
