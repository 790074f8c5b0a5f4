"""HLS kernel cost model and the kernel stages of a pipeline chain.

A kernel in this reproduction is what a single HLS function becomes
after synthesis: a pipelined datapath characterised by

* ``ii`` — initiation interval: cycles between accepting consecutive
  inputs (``#pragma HLS pipeline II=n``);
* ``depth`` — pipeline depth: cycles from accepting an input to
  producing its output;
* ``unroll`` — spatial replication: how many items enter per initiation
  (``#pragma HLS unroll factor=n``).

The classic HLS latency formula for a loop of ``n`` iterations,

    ``cycles = depth + (ceil(n / unroll) - 1) * ii``,

is exposed by :meth:`KernelSpec.latency_cycles` and drives all timing.

Two stage granularities share the same spec; both are values (a spec
and a function) that :func:`~repro.core.pipeline.run_pipeline` times:

* :class:`ItemKernel` takes one item per input — exact per-item
  timing; used by tests and the E1 timing ablation.
* :class:`BurstKernel` takes a :class:`~repro.core.stream.Burst` per
  input, charging the initiation-limited occupancy for the whole burst
  (plus the pipeline depth once, for the first burst).  This is the
  granularity the use-case systems run at.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from .clocking import FABRIC_300MHZ, ClockDomain
from .device import ResourceVector

__all__ = ["BurstKernel", "ItemKernel", "KernelSpec"]


@dataclass(frozen=True, slots=True)
class KernelSpec:
    """Static characteristics of a synthesized HLS kernel.

    Parameters
    ----------
    name:
        Identifier used in dataflow reports.
    ii:
        Initiation interval in cycles (>= 1).
    depth:
        Pipeline depth in cycles (>= 1).
    unroll:
        Spatial replication factor (>= 1); ``unroll`` items are accepted
        per initiation.
    clock:
        The clock domain the kernel runs in.
    resources:
        Fabric resources one instance consumes.
    """

    name: str
    ii: int
    depth: int
    unroll: int
    clock: ClockDomain = FABRIC_300MHZ
    resources: ResourceVector = field(default_factory=ResourceVector)

    def __post_init__(self) -> None:
        if self.ii < 1:
            raise ValueError(f"ii must be >= 1, got {self.ii}")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.unroll < 1:
            raise ValueError(f"unroll must be >= 1, got {self.unroll}")

    def initiations(self, n_items: int) -> int:
        """Number of pipeline initiations needed for ``n_items`` inputs."""
        return math.ceil(n_items / self.unroll)

    def occupancy_cycles(self, n_items: int) -> int:
        """Cycles the kernel's input is busy accepting ``n_items``."""
        return self.initiations(n_items) * self.ii

    def latency_cycles(self, n_items: int) -> int:
        """End-to-end cycles to process ``n_items`` (classic HLS formula)."""
        if n_items <= 0:
            return 0
        return self.depth + (self.initiations(n_items) - 1) * self.ii

    def latency_seconds(self, n_items: int) -> float:
        """End-to-end latency for ``n_items`` in seconds."""
        return self.clock.cycles_to_seconds(self.latency_cycles(n_items))

    def throughput_items_per_sec(self) -> float:
        """Steady-state throughput (items/s) ignoring pipeline fill."""
        return self.clock.freq_hz * self.unroll / self.ii


@dataclass(frozen=True, slots=True)
class BurstKernel:
    """A pipelined kernel stage that consumes and produces bursts.

    ``fn`` maps an input :class:`~repro.core.stream.Burst` to an output
    ``Burst`` (or ``None`` to emit nothing, e.g. a fully-selective
    filter).  Timing: the kernel is busy ``occupancy_cycles(burst.count)``
    per burst, plus ``depth`` cycles once before its first output — so a
    chain of burst kernels reproduces the fill-then-stream behaviour of
    a real dataflow pipeline without timing every item.  Anything but a
    ``Burst`` on its input or output raises ``TypeError``.
    """

    spec: KernelSpec
    fn: Callable[[Any], Any]


@dataclass(frozen=True, slots=True)
class ItemKernel:
    """A pipelined kernel stage that consumes and produces single items.

    Exact per-item timing: one initiation every ``ii`` cycles, an output
    ``depth`` cycles after its input.  ``fn`` maps an item to an item or
    ``None`` (dropped).  This is the burst timing with a count of 1 per
    input, since ``latency_cycles(1) == depth`` and
    ``occupancy_cycles(1) == ii``: the skid is charged once, before the
    first output, which matches per-item skids in total cycles for a
    full stream.  The E1 burst-vs-item ablation checks that burst mode
    agrees with it on total cycles.
    """

    spec: KernelSpec
    fn: Callable[[Any], Any]

    def __post_init__(self) -> None:
        if self.spec.unroll != 1:
            raise ValueError("ItemKernel models unroll=1 kernels only")
