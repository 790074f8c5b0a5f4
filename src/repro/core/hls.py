"""A miniature High-Level Synthesis front end.

The tutorial's *Programming* section teaches how ``#pragma HLS
pipeline`` and ``#pragma HLS unroll`` turn a sequential loop into a
spatial datapath.  This module reproduces that lesson as an executable
model: describe a loop nest (:class:`LoopNest`) with per-iteration
operation counts, choose pragmas (:class:`Pragmas`), and
:func:`synthesize` returns the :class:`~repro.core.kernel.KernelSpec`
the "compiler" would produce — including a first-order resource
estimate, so unrolling visibly spends LUTs/DSPs to buy throughput.

The temporal (CPU-style) execution of the same loop is its synthesis
with ``Pragmas(pipeline=False)``; bench E1 sweeps II and unroll against
it and regenerates the spatial-vs-temporal argument of the tutorial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .clocking import FABRIC_300MHZ, ClockDomain
from .device import ResourceVector
from .kernel import KernelSpec

__all__ = ["LoopNest", "Pragmas", "synthesize"]

# First-order per-operation costs used by the resource estimator.  The
# absolute values are rough (they mimic Vitis HLS reports for 32-bit
# ops) but their *ratios* are what the design-space arguments rely on.
_OP_COSTS: dict[str, tuple[int, ResourceVector]] = {
    # op -> (latency cycles, resources per parallel instance)
    "add": (1, ResourceVector(lut=32, ff=32)),
    "mul": (3, ResourceVector(dsp=3, lut=20, ff=60)),
    "div": (30, ResourceVector(lut=1200, ff=1800)),
    "cmp": (1, ResourceVector(lut=16, ff=16)),
    "logic": (1, ResourceVector(lut=8, ff=8)),
    "mem_read": (2, ResourceVector(lut=40, ff=40)),
    "mem_write": (1, ResourceVector(lut=40, ff=40)),
}


@dataclass(frozen=True, slots=True)
class LoopNest:
    """A perfect loop nest with per-iteration operation counts.

    Parameters
    ----------
    name:
        Kernel name.
    trip_count:
        Total iterations of the flattened nest.
    ops:
        Mapping from op kind (see module source for the supported set)
        to how many of that op one iteration performs.  Iterations are
        independent of each other (no loop-carried dependence).
    """

    name: str
    trip_count: int
    ops: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.trip_count < 0:
            raise ValueError(f"trip_count must be >= 0, got {self.trip_count}")
        for op, count in self.ops.items():
            if op not in _OP_COSTS:
                raise ValueError(
                    f"unknown op {op!r}; supported: {sorted(_OP_COSTS)}"
                )
            if count < 0:
                raise ValueError(f"op count for {op!r} must be >= 0")

    def iteration_latency(self) -> int:
        """Cycles for one iteration's dependency chain (ops in sequence)."""
        return max(
            1,
            sum(_OP_COSTS[op][0] * count for op, count in self.ops.items()),
        )


@dataclass(frozen=True, slots=True)
class Pragmas:
    """The pragma set applied to a loop nest.

    ``pipeline_ii`` is the *requested* II (the achieved II never exceeds
    the iteration latency); ``unroll`` replicates the datapath.
    """

    pipeline: bool = True
    pipeline_ii: int = 1
    unroll: int = 1

    def __post_init__(self) -> None:
        if self.pipeline_ii < 1:
            raise ValueError(f"pipeline_ii must be >= 1, got {self.pipeline_ii}")
        if self.unroll < 1:
            raise ValueError(f"unroll must be >= 1, got {self.unroll}")


def _base_resources(loop: LoopNest) -> ResourceVector:
    total = ResourceVector()
    for op, count in loop.ops.items():
        total = total + _OP_COSTS[op][1] * count
    # Control logic floor for any synthesized loop.
    return total + ResourceVector(lut=200, ff=300)


def synthesize(
    loop: LoopNest,
    pragmas: Pragmas = Pragmas(),
    clock: ClockDomain = FABRIC_300MHZ,
) -> KernelSpec:
    """"Synthesize" a loop nest under the given pragmas into a KernelSpec.

    Without ``pipeline`` the kernel degenerates to a temporal engine:
    II equals the full iteration latency (one iteration at a time).
    With it, II is the requested one, capped at the iteration latency;
    ``unroll`` multiplies both throughput and resources.
    """
    depth = loop.iteration_latency()
    if pragmas.pipeline:
        # Honor the requested II, but never exceed the iteration
        # latency: a pipeline with II == depth is already the sequential
        # schedule.
        ii = min(depth, pragmas.pipeline_ii)
    else:
        ii = depth
    resources = _base_resources(loop) * pragmas.unroll
    return KernelSpec(
        name=loop.name,
        ii=ii,
        depth=depth,
        unroll=pragmas.unroll,
        clock=clock,
        resources=resources,
    )
