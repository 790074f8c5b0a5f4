"""Core FPGA execution model: event engine, streams, kernels, devices.

This package is the reproduction's substitute for the FPGA itself: a
cycle-approximate spatial-dataflow simulator whose vocabulary mirrors
HLS (initiation interval, pipeline depth, unroll, bounded FIFO
streams, dataflow regions solved as chains of stages) and whose
resource model mirrors the Alveo cards the tutorial uses.
"""

from .clocking import (
    FABRIC_200MHZ,
    FABRIC_300MHZ,
    FABRIC_400MHZ,
    HBM_450MHZ,
    NETWORK_322MHZ,
    ClockDomain,
)
from .dataflow import RateStage, ThroughputReport, solve_chain
from .device import (
    ALVEO_U250,
    ALVEO_U280,
    ALVEO_U55C,
    DEVICE_CATALOG,
    Device,
    ResourceVector,
)
from .hls import LoopNest, Pragmas, synthesize
from .kernel import BurstKernel, ItemKernel, KernelSpec
from .pipeline import KernelStats, PipelineResult, run_pipeline
from .sim import (
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
    WaitTimeout,
    all_of,
    any_of,
    with_timeout,
)
from .stream import Burst, END_OF_STREAM, Stream

__all__ = [
    "ALVEO_U250",
    "ALVEO_U280",
    "ALVEO_U55C",
    "Burst",
    "BurstKernel",
    "ClockDomain",
    "DEVICE_CATALOG",
    "Device",
    "END_OF_STREAM",
    "Event",
    "FABRIC_200MHZ",
    "FABRIC_300MHZ",
    "FABRIC_400MHZ",
    "HBM_450MHZ",
    "Interrupt",
    "ItemKernel",
    "KernelSpec",
    "KernelStats",
    "LoopNest",
    "NETWORK_322MHZ",
    "PipelineResult",
    "Pragmas",
    "Process",
    "RateStage",
    "ResourceVector",
    "SimulationError",
    "Simulator",
    "Stream",
    "ThroughputReport",
    "Timeout",
    "WaitTimeout",
    "all_of",
    "any_of",
    "run_pipeline",
    "solve_chain",
    "synthesize",
    "with_timeout",
]
