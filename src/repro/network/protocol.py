"""Transport protocol models: where FPGA network stacks earn their keep.

A :class:`ProtocolModel` adds per-message *processing* costs on both
ends of a link.  The decisive difference between the stacks the
tutorial discusses is exactly this overhead:

* a **kernel TCP** stack costs ~5-15 us of CPU time per message
  (syscalls, copies, interrupts);
* an **FPGA TCP** stack (Limago/EasyNet style) processes packets in the
  datapath at ~1-2 us per message, at line rate;
* an **FPGA RDMA** stack (StRoM/Coyote style) exposes one-sided verbs
  with ~0.7-1.5 us end-to-end message overhead and no target-side CPU.

:meth:`message_ps` is a one-way message (send-side + wire + recv-side);
a Farview READ/offload call is a request message plus a response
message.
"""

from __future__ import annotations

from dataclasses import dataclass

from .link import LinkModel, ethernet_100g

__all__ = [
    "ProtocolModel",
    "fpga_rdma",
    "fpga_tcp",
    "kernel_tcp",
]


@dataclass(frozen=True, slots=True)
class ProtocolModel:
    """A transport protocol running over a link."""

    name: str
    link: LinkModel
    send_overhead_ps: int
    recv_overhead_ps: int
    per_frame_overhead_ps: int = 0  # extra processing per MTU frame
    one_sided: bool = False  # RDMA verbs: no target CPU involvement

    def __post_init__(self) -> None:
        if min(self.send_overhead_ps, self.recv_overhead_ps,
               self.per_frame_overhead_ps) < 0:
            raise ValueError("protocol overheads must be >= 0")

    def message_ps(self, nbytes: int) -> int:
        """One-way latency of a message carrying ``nbytes`` payload."""
        frames = self.link.frames_for(nbytes)
        processing = (
            self.send_overhead_ps
            + self.recv_overhead_ps
            + frames * self.per_frame_overhead_ps
        )
        return processing + self.link.transfer_ps(nbytes)

    def goodput_bytes_per_sec(self, message_bytes: int) -> float:
        """Payload goodput when sending back-to-back messages of a size."""
        if message_bytes <= 0:
            return 0.0
        # Pipelined messages: the per-message bottleneck is the larger of
        # wire serialization and per-message processing on either side.
        frames = self.link.frames_for(message_bytes)
        per_message = max(
            self.link.serialization_ps(message_bytes),
            self.send_overhead_ps + frames * self.per_frame_overhead_ps,
            self.recv_overhead_ps,
        )
        return message_bytes * 1_000_000_000_000 / per_message


def fpga_rdma(link: LinkModel | None = None) -> ProtocolModel:
    """One-sided RDMA on an FPGA NIC (StRoM/Coyote-style)."""
    return ProtocolModel(
        name="fpga-rdma",
        link=link or ethernet_100g(),
        send_overhead_ps=700_000,   # 0.7 us verb issue + DMA
        recv_overhead_ps=300_000,   # target datapath, no CPU
        per_frame_overhead_ps=10_000,
        one_sided=True,
    )


def fpga_tcp(link: LinkModel | None = None) -> ProtocolModel:
    """FPGA TCP/IP at line rate (Limago / EasyNet-style)."""
    return ProtocolModel(
        name="fpga-tcp",
        link=link or ethernet_100g(),
        send_overhead_ps=1_200_000,
        recv_overhead_ps=800_000,
        per_frame_overhead_ps=15_000,
    )


def kernel_tcp(link: LinkModel | None = None) -> ProtocolModel:
    """Kernel (software) TCP on a host CPU: syscalls, copies, interrupts."""
    return ProtocolModel(
        name="kernel-tcp",
        link=link or ethernet_100g(),
        send_overhead_ps=8_000_000,
        recv_overhead_ps=7_000_000,
        per_frame_overhead_ps=300_000,  # per-frame CPU work caps goodput
    )
