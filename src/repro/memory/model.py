"""Base memory model: latency/bandwidth/burst cost accounting.

Every memory technology in the reproduction (BRAM/URAM, HBM2 channels,
DDR4, host DRAM behind PCIe) is an instance of :class:`MemoryModel`,
parameterised by

* ``latency_ps`` — first-word access latency;
* ``bandwidth_bytes_per_sec`` — peak sequential streaming bandwidth;
* ``min_burst_bytes`` — the minimum transfer granule (an access smaller
  than a burst still occupies the channel for a full burst);
* ``random_efficiency`` — fraction of peak bandwidth achievable under
  dependent random accesses (row-buffer misses, bank conflicts).

The two questions the use-case systems ask are costed directly:

* :meth:`stream_time_ps` — time to move ``nbytes`` sequentially
  (latency paid once, then line-rate);
* :meth:`random_access_time_ps` — time for one dependent random access
  of ``nbytes`` (latency paid per access).
* :meth:`batch_random_time_ps` — ``n`` *independent* random accesses
  pipelined through one channel: latency paid once, then the channel is
  bound by burst occupancy at ``random_efficiency`` of peak.

:class:`MemoryPort` wraps a model as a shared resource in the event
simulator: concurrent requests serialise FIFO, which is how a single
AXI port behaves.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from ..core.sim import Event, Simulator

__all__ = ["AccessPattern", "MemoryModel", "MemoryPort"]

_PS_PER_S = 1_000_000_000_000


class AccessPattern(enum.Enum):
    """How a request's addresses relate to each other."""

    SEQUENTIAL = "sequential"
    RANDOM = "random"


@dataclass(frozen=True, slots=True)
class MemoryModel:
    """A latency/bandwidth/burst characterisation of one memory channel."""

    name: str
    capacity_bytes: int
    latency_ps: int
    bandwidth_bytes_per_sec: float
    min_burst_bytes: int
    random_efficiency: float
    row_cycle_ps: int = 0

    def __post_init__(self) -> None:
        if self.capacity_bytes < 0:
            raise ValueError("capacity must be >= 0")
        if self.latency_ps < 0:
            raise ValueError("latency must be >= 0")
        if self.bandwidth_bytes_per_sec <= 0:
            raise ValueError("bandwidth must be positive")
        if self.min_burst_bytes < 1:
            raise ValueError("min_burst_bytes must be >= 1")
        if not 0.0 < self.random_efficiency <= 1.0:
            raise ValueError("random_efficiency must be in (0, 1]")
        if self.row_cycle_ps < 0:
            raise ValueError("row_cycle_ps must be >= 0")

    # -- cost model --------------------------------------------------------

    def _occupancy_ps(self, nbytes: int, efficiency: float = 1.0) -> int:
        """Channel occupancy to move ``nbytes`` (burst-rounded)."""
        if nbytes <= 0:
            return 0
        bursts = math.ceil(nbytes / self.min_burst_bytes)
        effective = bursts * self.min_burst_bytes
        return math.ceil(
            effective * _PS_PER_S / (self.bandwidth_bytes_per_sec * efficiency)
        )

    def stream_time_ps(self, nbytes: int) -> int:
        """Time to read/write ``nbytes`` sequentially (latency once)."""
        if nbytes <= 0:
            return 0
        return self.latency_ps + self._occupancy_ps(nbytes)

    def _random_occupancy_ps(self, nbytes: int) -> int:
        """Channel occupancy of one random access: burst transfer at the
        degraded bandwidth, floored by the DRAM row cycle (tRC)."""
        return max(
            self._occupancy_ps(nbytes, efficiency=self.random_efficiency),
            self.row_cycle_ps,
        )

    def random_access_time_ps(self, nbytes: int) -> int:
        """Time for one *dependent* random access of ``nbytes``."""
        if nbytes <= 0:
            return 0
        return self.latency_ps + self._random_occupancy_ps(nbytes)

    def batch_random_time_ps(self, n_accesses: int, nbytes_each: int) -> int:
        """Time for ``n`` independent random accesses, pipelined.

        The channel hides per-access latency behind outstanding
        requests: one latency up front, then per-access occupancy (the
        larger of burst transfer at the degraded bandwidth and the DRAM
        row cycle).
        """
        if n_accesses <= 0 or nbytes_each <= 0:
            return 0
        return self.latency_ps + n_accesses * self._random_occupancy_ps(
            nbytes_each
        )

    def access_time_ps(self, nbytes: int, pattern: AccessPattern) -> int:
        """Dispatch on access pattern."""
        if pattern is AccessPattern.SEQUENTIAL:
            return self.stream_time_ps(nbytes)
        return self.random_access_time_ps(nbytes)


class MemoryPort:
    """A memory channel as a shared, FIFO-serialised simulator resource."""

    def __init__(self, sim: Simulator, model: MemoryModel) -> None:
        self.sim = sim
        self.model = model
        self.busy_until_ps = 0
        self.busy_ps = 0
        self.bytes_moved = 0
        self.requests = 0

    def request(self, nbytes: int, pattern: AccessPattern) -> Event:
        """Issue a request; the event fires when the data has moved.

        Requests queue behind any in-flight request on the same port.
        """
        duration = self.model.access_time_ps(nbytes, pattern)
        start = max(self.sim.now, self.busy_until_ps)
        self.busy_until_ps = start + duration
        self.busy_ps += duration
        self.bytes_moved += max(0, nbytes)
        self.requests += 1
        tracer = self.sim._tracer
        if tracer is not None:
            tracer.memory_access(
                self.model.name, start, duration, nbytes, pattern.value
            )
        done = Event(self.sim)
        done.succeed(value=nbytes, delay=self.busy_until_ps - self.sim.now)
        return done
