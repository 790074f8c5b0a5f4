"""Switched network fabric: clusters of nodes behind a switch.

:class:`SwitchedFabric` models the single-switch rack the HACC cluster
(Figure 1 of the tutorial) and the ACCL evaluation use: ``n`` nodes,
each with a full-duplex link into a non-blocking switch.  Transfers
between disjoint node pairs proceed in parallel; a node's own link is
its bottleneck.

The fabric answers point-to-point and per-step timing questions
analytically.
"""

from __future__ import annotations

from .protocol import ProtocolModel

__all__ = ["SwitchedFabric"]


class SwitchedFabric:
    """``n_nodes`` nodes behind one non-blocking switch."""

    def __init__(
        self,
        protocol: ProtocolModel,
        n_nodes: int,
        switch_latency_ps: int = 300_000,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("fabric needs at least one node")
        if switch_latency_ps < 0:
            raise ValueError("switch latency must be >= 0")
        self.protocol = protocol
        self.n_nodes = n_nodes
        self.switch_latency_ps = switch_latency_ps

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise IndexError(f"node {node} out of range (0..{self.n_nodes - 1})")

    def message_ps(self, src: int, dst: int, nbytes: int) -> int:
        """One-way message time between two nodes (through the switch)."""
        self._check_node(src)
        self._check_node(dst)
        if src == dst:
            return 0
        return self.protocol.message_ps(nbytes) + self.switch_latency_ps

    def parallel_step_ps(self, transfers: list[tuple[int, int, int]]) -> int:
        """Makespan of one communication step.

        ``transfers`` is a list of ``(src, dst, nbytes)``.  The switch is
        non-blocking, so the step finishes when the busiest *port*
        (egress at a source or ingress at a destination) has moved all
        its bytes, plus one message latency for the step.

        This is the standard alpha-beta costing collectives literature
        uses; ACCL's ring/tree analyses follow it.
        """
        if not transfers:
            return 0
        egress: dict[int, int] = {}
        ingress: dict[int, int] = {}
        largest = 0
        for src, dst, nbytes in transfers:
            self._check_node(src)
            self._check_node(dst)
            if src == dst:
                continue
            egress[src] = egress.get(src, 0) + max(0, nbytes)
            ingress[dst] = ingress.get(dst, 0) + max(0, nbytes)
            largest = max(largest, nbytes)
        if not egress:
            return 0
        busiest = max(max(egress.values()), max(ingress.values()))
        serialization = self.protocol.link.serialization_ps(busiest)
        per_message = (
            self.protocol.send_overhead_ps
            + self.protocol.recv_overhead_ps
            + self.protocol.link.frames_for(largest)
            * self.protocol.per_frame_overhead_ps
        )
        return (
            serialization
            + per_message
            + self.protocol.link.propagation_ps
            + self.switch_latency_ps
        )

