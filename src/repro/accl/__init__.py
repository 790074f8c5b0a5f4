"""Use Case IV — ACCL: MPI-like collectives for clusters of FPGAs
(He et al., H2RC 2021; the distributed-processing infrastructure of
Figure 1's HACC rack).
"""

from .cluster import FpgaCluster, HostStagedCluster
from .collectives import (
    CollectiveOutcome,
    allreduce_ring,
    allreduce_tree,
    broadcast_tree,
)
from .resilient import ResilientAllreduce, allreduce_with_faults

__all__ = [
    "CollectiveOutcome",
    "FpgaCluster",
    "HostStagedCluster",
    "ResilientAllreduce",
    "allreduce_with_faults",
    "allreduce_ring",
    "allreduce_tree",
    "broadcast_tree",
]
