"""Physical link model: bandwidth, propagation, serialization.

A :class:`LinkModel` is the wire-level cost of moving bytes between two
adjacent ports — bandwidth-limited serialization plus propagation.
Protocol costs (per-message software/firmware overheads, which is where
FPGA network stacks beat kernel stacks) live one layer up in
:mod:`repro.network.protocol`.

:class:`SimLink` binds a :class:`LinkModel` to the event simulator as a
shared egress resource: transfers serialise on the wire FIFO, the
returned event fires at delivery, and — when the simulator carries a
tracer — every transfer lands on the link's trace track.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.sim import Event, Simulator

__all__ = ["LinkModel", "SimLink", "ethernet_100g"]

_PS_PER_S = 1_000_000_000_000


@dataclass(frozen=True, slots=True)
class LinkModel:
    """A point-to-point link.

    Parameters
    ----------
    name:
        Identifier for reports.
    bandwidth_bits_per_sec:
        Raw line rate.
    propagation_ps:
        One-way flight time (cables + PHY).
    frame_overhead_bytes:
        Per-frame header/trailer bytes (Ethernet+IP+transport framing).
    mtu_bytes:
        Payload bytes per frame; large transfers are segmented.
    """

    name: str
    bandwidth_bits_per_sec: float
    propagation_ps: int
    frame_overhead_bytes: int = 78  # Eth+IP+TCP-ish framing
    mtu_bytes: int = 4096

    def __post_init__(self) -> None:
        if self.bandwidth_bits_per_sec <= 0:
            raise ValueError("bandwidth must be positive")
        if self.propagation_ps < 0:
            raise ValueError("propagation must be >= 0")
        if self.mtu_bytes < 1:
            raise ValueError("mtu must be >= 1")
        if self.frame_overhead_bytes < 0:
            raise ValueError("frame overhead must be >= 0")

    @property
    def bandwidth_bytes_per_sec(self) -> float:
        """Line rate in bytes/s."""
        return self.bandwidth_bits_per_sec / 8.0

    def frames_for(self, nbytes: int) -> int:
        """Number of frames needed for an ``nbytes`` payload."""
        if nbytes <= 0:
            return 1  # control messages still need a frame
        return math.ceil(nbytes / self.mtu_bytes)

    def serialization_ps(self, nbytes: int) -> int:
        """Time to clock ``nbytes`` (plus framing) onto the wire."""
        wire_bytes = max(0, nbytes) + self.frames_for(nbytes) * self.frame_overhead_bytes
        return math.ceil(wire_bytes * 8 * _PS_PER_S / self.bandwidth_bits_per_sec)

    def transfer_ps(self, nbytes: int) -> int:
        """One-way time for an ``nbytes`` message: serialize + propagate."""
        return self.serialization_ps(nbytes) + self.propagation_ps


class SimLink:
    """A :class:`LinkModel` as a FIFO-serialised simulator resource.

    Transfers occupy the wire back-to-back in issue order (a link has
    one serialiser); the returned event fires when the last byte has
    arrived at the far end, ``serialization + propagation`` after the
    wire freed up.  ``busy_ps``/``bytes_moved`` feed the profiler's
    busy/stall breakdown.
    """

    def __init__(
        self, sim: Simulator, model: LinkModel, name: str | None = None
    ) -> None:
        self.sim = sim
        self.model = model
        self.name = name if name is not None else model.name
        self.busy_until_ps = 0
        self.busy_ps = 0
        self.bytes_moved = 0
        self.transfers = 0

    def transfer(self, nbytes: int, dst: object = None) -> Event:
        """Send ``nbytes``; the event fires (with ``nbytes``) at delivery."""
        serialization = self.model.serialization_ps(nbytes)
        start = max(self.sim.now, self.busy_until_ps)
        self.busy_until_ps = start + serialization
        delivered = self.busy_until_ps + self.model.propagation_ps
        self.busy_ps += serialization
        self.bytes_moved += max(0, nbytes)
        self.transfers += 1
        tracer = self.sim._tracer
        if tracer is not None:
            tracer.link_transfer(self.name, start, serialization, nbytes, dst)
        done = Event(self.sim)
        done.succeed(value=nbytes, delay=delivered - self.sim.now)
        return done


def ethernet_100g(propagation_ps: int = 500_000) -> LinkModel:
    """100 GbE — the tutorial's line-rate target (Farview, ACCL, FANNS)."""
    return LinkModel(
        name="100gbe",
        bandwidth_bits_per_sec=100e9,
        propagation_ps=propagation_ps,
    )

