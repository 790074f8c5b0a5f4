"""Network substrate: links, transport protocols, switched fabrics.

Substitutes for the 100 Gbps RDMA/TCP stacks the tutorial's systems run
on (StRoM, EasyNet, Limago).  Links model serialization + propagation;
protocols add the per-message processing costs that separate FPGA
stacks from kernel stacks; :class:`~repro.network.fabric.SwitchedFabric`
models the single-switch HACC-style rack used by Farview and ACCL.
"""

from .fabric import SwitchedFabric
from .link import LinkModel, ethernet_100g
from .protocol import ProtocolModel, fpga_rdma, fpga_tcp, kernel_tcp

__all__ = [
    "LinkModel",
    "ProtocolModel",
    "SwitchedFabric",
    "ethernet_100g",
    "fpga_rdma",
    "fpga_tcp",
    "kernel_tcp",
]
