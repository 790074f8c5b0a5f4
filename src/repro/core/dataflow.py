"""The steady-state throughput solver for a dataflow region.

An HLS *dataflow region* (``#pragma HLS dataflow``) streams items
through kernels connected by FIFO streams.  Every region this
reproduction models is a chain — Farview's memory -> operators ->
network, E1's single kernel — so :func:`solve_chain` takes the stages
in stream order and one *gain* per link between them: items the next
stage receives per item the previous one consumes (a selectivity < 1
for a filter, > 1 for an expander such as a Cartesian product).

Stages are :class:`~repro.core.kernel.KernelSpec`-characterised
kernels or fixed-rate :class:`RateStage`\\ s (a memory port, a network
link).  In steady state the region's throughput is set by the slowest
stage after scaling for the volume it sees; the solver answers:

* sustainable source rate (items/s at the region input),
* the bottleneck stage,
* fill latency (the sum of the stages' pipeline latencies),
* total time to process ``n`` source items.

The event-driven burst simulation is the other view of the same
machinery: E1b compares the two on one kernel, where they agree within
1% (the solver charges ``depth + n * II`` cycles, the pipeline
``depth + (n - 1) * II``), and ``tests/core/test_dataflow.py`` on a
two-kernel chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .kernel import KernelSpec

__all__ = ["RateStage", "ThroughputReport", "solve_chain"]


@dataclass(frozen=True, slots=True)
class RateStage:
    """A stage limited by a fixed item rate rather than a kernel pipeline.

    Used for memory ports and network links: ``rate_items_per_sec`` is
    how many items the stage can move per second; ``latency_seconds`` is
    its constant fill latency contribution.
    """

    name: str
    rate_items_per_sec: float
    latency_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.rate_items_per_sec <= 0:
            raise ValueError(
                f"stage {self.name!r}: rate must be positive, "
                f"got {self.rate_items_per_sec}"
            )
        if self.latency_seconds < 0:
            raise ValueError(f"stage {self.name!r}: negative latency")


@dataclass(frozen=True, slots=True)
class ThroughputReport:
    """Solver output for a whole dataflow region."""

    source_rate: float          # sustainable items/s at the region input
    bottleneck: str             # name of the limiting stage
    fill_latency_seconds: float  # pipeline-fill latency of the chain

    def time_for_items(self, n_items: int) -> float:
        """Seconds to stream ``n_items`` through the region (fill + drain)."""
        if n_items <= 0:
            return 0.0
        return self.fill_latency_seconds + n_items / self.source_rate


def solve_chain(
    stages: Sequence[KernelSpec | RateStage], gains: Sequence[float]
) -> ThroughputReport:
    """Solve a chain of stages; ``gains[i]`` links stage ``i`` to ``i + 1``.

    A stage sees the product of the gains before it per source item, so
    its bound on the source rate is its local rate over that product
    (unbounded when nothing reaches it).  The first stage with the
    smallest bound is the bottleneck.
    """
    if len(gains) != len(stages) - 1:
        raise ValueError(
            f"{len(stages)} stages need {len(stages) - 1} gains, "
            f"got {len(gains)}"
        )
    for gain in gains:
        if gain < 0:
            raise ValueError(f"gain must be >= 0, got {gain}")
    names: set[str] = set()
    volume = 1.0
    best_rate = math.inf
    bottleneck = ""
    fill = 0.0
    for stage, gain in zip(stages, (1.0, *gains)):
        if stage.name in names:
            raise ValueError(f"duplicate stage name {stage.name!r}")
        names.add(stage.name)
        volume *= gain
        if isinstance(stage, KernelSpec):
            rate = stage.throughput_items_per_sec()
            fill += stage.clock.cycles_to_seconds(stage.depth)
        else:
            rate = stage.rate_items_per_sec
            fill += stage.latency_seconds
        bound = math.inf if volume == 0 else rate / volume
        if bound < best_rate:
            best_rate = bound
            bottleneck = stage.name
    return ThroughputReport(best_rate, bottleneck, fill)
