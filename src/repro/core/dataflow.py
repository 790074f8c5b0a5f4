"""Static dataflow graphs and the steady-state throughput solver.

An HLS *dataflow region* (``#pragma HLS dataflow``) is a DAG of kernels
connected by FIFO streams; in steady state its throughput is set by the
slowest stage, after accounting for how the data volume changes along
the graph (a filter with selectivity 0.1 presents its successor with a
tenth of the items).

:class:`DataflowGraph` captures exactly that: nodes are
:class:`~repro.core.kernel.KernelSpec`-characterised stages (or
fixed-rate stages such as a memory port or a network link), edges carry
a *gain* — items emitted downstream per item consumed (selectivity < 1
for filters, > 1 for expanders such as a Cartesian product).

The solver answers, analytically:

* sustainable source rate (items/s at the region input),
* the bottleneck stage,
* fill latency (sum of pipeline depths along the critical path),
* total time to process ``n`` source items,
* aggregate resource demand.

This analytic model and the event-driven burst simulation are two views
of the same machinery; test ``tests/core/test_dataflow.py`` and bench
E1 check that they agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .kernel import KernelSpec

__all__ = ["DataflowGraph", "RateStage", "StageReport", "ThroughputReport"]


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
class StageReport:
    """Per-stage solver output."""

    name: str
    gain_from_source: float
    local_rate: float
    source_rate_bound: float


@dataclass(frozen=True, slots=True)
class ThroughputReport:
    """Solver output for a whole dataflow region."""

    source_rate: float          # sustainable items/s at the region input
    bottleneck: str             # name of the limiting stage
    fill_latency_seconds: float  # critical-path pipeline-fill latency
    stages: tuple[StageReport, ...]

    def time_for_items(self, n_items: int) -> float:
        """Seconds to stream ``n_items`` through the region (fill + drain)."""
        if n_items <= 0:
            return 0.0
        return self.fill_latency_seconds + n_items / self.source_rate


class DataflowGraph:
    """A DAG of kernel/rate stages with per-edge data-volume gains."""

    def __init__(self, name: str = "dataflow") -> None:
        self.name = name
        self._stages: dict[str, KernelSpec | RateStage] = {}
        self._edges: dict[str, list[tuple[str, float]]] = {}
        self._preds: dict[str, list[str]] = {}
        self._sources: list[str] = []

    def add(self, stage: KernelSpec | RateStage, source: bool = False) -> str:
        """Add a stage; returns its name. ``source=True`` marks region inputs."""
        if stage.name in self._stages:
            raise ValueError(f"duplicate stage name {stage.name!r}")
        self._stages[stage.name] = stage
        self._edges[stage.name] = []
        self._preds[stage.name] = []
        if source:
            self._sources.append(stage.name)
        return stage.name

    def connect(self, upstream: str, downstream: str, gain: float) -> None:
        """Add an edge; ``gain`` is items emitted per upstream item consumed."""
        if upstream not in self._stages:
            raise KeyError(f"unknown stage {upstream!r}")
        if downstream not in self._stages:
            raise KeyError(f"unknown stage {downstream!r}")
        if gain < 0:
            raise ValueError(f"edge gain must be >= 0, got {gain}")
        self._edges[upstream].append((downstream, gain))
        self._preds[downstream].append(upstream)

    # -- solver -----------------------------------------------------------

    def _toposort(self) -> list[str]:
        indeg = {name: len(preds) for name, preds in self._preds.items()}
        ready = [name for name, d in indeg.items() if d == 0]
        order: list[str] = []
        while ready:
            name = ready.pop()
            order.append(name)
            for succ, _ in self._edges[name]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._stages):
            raise ValueError(f"dataflow graph {self.name!r} has a cycle")
        return order

    def _gains_from_source(self, order: Iterable[str]) -> dict[str, float]:
        """Items arriving at each stage per item entering the region.

        For stages with several predecessors the arriving volumes add
        (a merge); gains multiply along paths.
        """
        sources = self._sources or [
            name for name, preds in self._preds.items() if not preds
        ]
        if not sources:
            raise ValueError("dataflow graph has no source stage")
        gain = {name: 0.0 for name in self._stages}
        for src in sources:
            gain[src] += 1.0
        for name in order:
            stage_gain = gain[name]
            if stage_gain == 0.0:
                continue
            for succ, edge_gain in self._edges[name]:
                gain[succ] += stage_gain * edge_gain
        return gain

    @staticmethod
    def _stage_rate(stage: KernelSpec | RateStage) -> float:
        if isinstance(stage, KernelSpec):
            return stage.throughput_items_per_sec()
        return stage.rate_items_per_sec

    @staticmethod
    def _stage_latency(stage: KernelSpec | RateStage) -> float:
        if isinstance(stage, KernelSpec):
            return stage.clock.cycles_to_seconds(stage.depth)
        return stage.latency_seconds

    def solve(self, tracer=None) -> ThroughputReport:
        """Compute the region's sustainable source rate and bottleneck.

        ``tracer`` (a :class:`~repro.obs.trace.Tracer`) records per-stage
        steady-state utilisation — at the sustainable source rate, what
        fraction of each stage's local rate is consumed — which is the
        analytic counterpart of the event-driven busy fraction.
        """
        order = self._toposort()
        gains = self._gains_from_source(order)
        reports: list[StageReport] = []
        best_rate = math.inf
        bottleneck = ""
        for name in order:
            g = gains[name]
            local = self._stage_rate(self._stages[name])
            bound = math.inf if g == 0 else local / g
            reports.append(StageReport(name, g, local, bound))
            if bound < best_rate:
                best_rate = bound
                bottleneck = name
        if math.isinf(best_rate):
            raise ValueError("no stage constrains the source rate")
        fill = self._critical_path_latency(order)
        if tracer is not None:
            tracer.dataflow_solved(
                self.name,
                bottleneck,
                {
                    r.name: (
                        best_rate * r.gain_from_source / r.local_rate
                        if r.local_rate
                        else 0.0
                    )
                    for r in reports
                },
            )
        return ThroughputReport(
            source_rate=best_rate,
            bottleneck=bottleneck,
            fill_latency_seconds=fill,
            stages=tuple(reports),
        )

    def _critical_path_latency(self, order: Iterable[str]) -> float:
        finish: dict[str, float] = {}
        for name in order:
            preds = self._preds[name]
            start = max((finish[p] for p in preds), default=0.0)
            finish[name] = start + self._stage_latency(self._stages[name])
        return max(finish.values(), default=0.0)
