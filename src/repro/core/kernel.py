"""HLS kernel cost model and pipelined kernel processes.

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

Two execution granularities share the same spec:

* :class:`ItemKernel` processes one item per event — exact but slow;
  used by tests and the E1 timing ablation.
* :class:`BurstKernel` processes a :class:`~repro.core.stream.Burst` per
  event, charging the initiation-limited occupancy for the whole burst
  (plus the pipeline depth once, for the first burst).  This is the
  granularity the use-case systems run at.

:class:`Source` and :class:`Sink` bracket a dataflow region.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any

from .clocking import FABRIC_300MHZ, ClockDomain
from .device import ResourceVector
from .sim import Simulator
from .stream import Burst, END_OF_STREAM, Stream

__all__ = [
    "BurstKernel",
    "ItemKernel",
    "KernelSpec",
    "Sink",
    "Source",
]


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
    ii: int = 1
    depth: int = 1
    unroll: int = 1
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

    def replicate(self, factor: int) -> "KernelSpec":
        """A spec for ``factor`` parallel instances (unroll and resources scale)."""
        if factor < 1:
            raise ValueError(f"replication factor must be >= 1, got {factor}")
        return KernelSpec(
            name=f"{self.name}x{factor}",
            ii=self.ii,
            depth=self.depth,
            unroll=self.unroll * factor,
            clock=self.clock,
            resources=self.resources * factor,
        )


class _PipelinedKernel:
    """The loop both kernel granularities share.

    Each input of ``n`` items keeps the kernel busy
    ``latency_cycles(n)`` the first time (pipeline fill included) and
    ``occupancy_cycles(n)`` after that.  Subclasses differ only in
    :meth:`_count`, which reads ``n`` off an input or output.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: KernelSpec,
        fn: Callable[[Any], Any],
        inp: Stream,
        out: Stream,
    ) -> None:
        self.sim = sim
        self.spec = spec
        self.fn = fn
        self.inp = inp
        self.out = out
        self.items_in = 0
        self.items_out = 0
        self.busy_ps = 0
        self.stall_in_ps = 0
        self.stall_out_ps = 0
        self._first = True
        sim._pipeline_components.append(self)
        sim._fastpath_attempted = False
        self.process = sim.spawn(self._run(), name=spec.name)

    def _count(self, item: Any) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def _run(self):
        sim = self.sim
        spec = self.spec
        inp, out = self.inp, self.out
        name = spec.name
        count = self._count
        while True:
            tracer = sim._tracer
            # Uncontended fast path: take/emit without allocating wait
            # events; fall back to the blocking path on contention.
            ok, item = inp.try_get()
            if not ok:
                item = yield from self._stalled(inp.get(), "input")
            if item is END_OF_STREAM:
                if not out.try_put(END_OF_STREAM):
                    yield from self._stalled(out.put(END_OF_STREAM), "output")
                return
            n = count(item)
            self.items_in += n
            if self._first:
                cycles = spec.latency_cycles(n)
                self._first = False
            else:
                cycles = spec.occupancy_cycles(n)
            delay = spec.clock.cycles_to_ps(cycles)
            self.busy_ps += delay
            busy_start = sim.now
            if delay:
                yield sim.timeout(delay)
            if tracer is not None:
                tracer.kernel_busy(name, busy_start, delay, n)
            result = self.fn(item)
            if result is None:
                continue
            self.items_out += count(result)
            if not out.try_put(result):
                yield from self._stalled(out.put(result), "output")

    def _stalled(self, event, side: str):
        """Wait on a blocked get or put and charge the wait as a stall."""
        sim = self.sim
        start = sim.now
        value = yield event
        stalled = sim.now - start
        if side == "input":
            self.stall_in_ps += stalled
        else:
            self.stall_out_ps += stalled
        tracer = sim._tracer
        if tracer is not None and stalled:
            tracer.kernel_stall(self.spec.name, start, stalled, side)
        return value


class BurstKernel(_PipelinedKernel):
    """A pipelined kernel that consumes and produces bursts.

    ``fn`` maps an input :class:`Burst` to an output ``Burst`` (or
    ``None`` to emit nothing, e.g. a fully-selective filter).  Timing:
    the kernel is busy ``occupancy_cycles(burst.count)`` per burst, plus
    ``depth`` cycles once before its first output — so a chain of burst
    kernels reproduces the fill-then-stream behaviour of a real dataflow
    pipeline without simulating every item.
    """

    def _count(self, burst: Any) -> int:
        if not isinstance(burst, Burst):
            raise TypeError(
                f"kernel {self.spec.name!r} expected Burst, got "
                f"{type(burst).__name__}"
            )
        return burst.count


class ItemKernel(_PipelinedKernel):
    """A pipelined kernel that consumes and produces individual items.

    Exact per-item timing: one initiation every ``ii`` cycles, an output
    ``depth`` cycles after its input.  ``fn`` maps an item to an item or
    ``None`` (dropped).  This is the burst timing with a count of 1 per
    item, since ``latency_cycles(1) == depth`` and
    ``occupancy_cycles(1) == ii``: the skid is charged once, before the
    first output, which matches per-item skids in total cycles for a
    full stream.  Used by unit tests and the E1
    burst-vs-item ablation; burst mode must agree with it on total
    cycles.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: KernelSpec,
        fn: Callable[[Any], Any],
        inp: Stream,
        out: Stream,
    ) -> None:
        if spec.unroll != 1:
            raise ValueError("ItemKernel models unroll=1 kernels only")
        super().__init__(sim, spec, fn, inp, out)

    def _count(self, item: Any) -> int:
        return 1


class Source:
    """Feeds a sequence of items (or bursts) into a stream.

    ``interval_ps`` spaces successive puts; 0 means the source is only
    limited by downstream backpressure (a line-rate producer).
    """

    def __init__(
        self,
        sim: Simulator,
        out: Stream,
        items: Iterable[Any],
        interval_ps: int = 0,
        name: str = "source",
    ) -> None:
        self.sim = sim
        self.out = out
        self.items = items
        self.interval_ps = interval_ps
        self.count = 0
        sim._pipeline_components.append(self)
        sim._fastpath_attempted = False
        self.process = sim.spawn(self._run(), name=name)

    def _run(self):
        sim = self.sim
        out = self.out
        interval = self.interval_ps
        for item in self.items:
            if interval:
                yield sim.timeout(interval)
            if not out.try_put(item):
                yield out.put(item)
            self.count += item.count if isinstance(item, Burst) else 1
        if not out.try_put(END_OF_STREAM):
            yield out.put(END_OF_STREAM)


class Sink:
    """Drains a stream, recording items and the completion timestamp."""

    def __init__(self, sim: Simulator, inp: Stream, name: str = "sink") -> None:
        self.sim = sim
        self.inp = inp
        self.received: list[Any] = []
        self.items = 0
        self.done_at_ps: int | None = None
        sim._pipeline_components.append(self)
        sim._fastpath_attempted = False
        self.process = sim.spawn(self._run(), name=name)

    def _run(self):
        sim = self.sim
        inp = self.inp
        while True:
            ok, item = inp.try_get()
            if not ok:
                item = yield inp.get()
            if item is END_OF_STREAM:
                self.done_at_ps = sim.now
                return
            self.received.append(item)
            self.items += item.count if isinstance(item, Burst) else 1

    @property
    def payloads(self) -> list[Any]:
        """Payloads of received bursts (or the raw items in item mode)."""
        return [
            item.payload if isinstance(item, Burst) else item
            for item in self.received
        ]
