"""The stepped reference the pipeline recurrence is tested against.

The same chain as :func:`~repro.core.run_pipeline` takes, run as
processes on the event engine: a source, one loop per kernel stage and
a sink, connected by :class:`~repro.core.Stream` FIFOs and stepped one
event at a time.  Nothing here solves a recurrence; every get, busy
interval and put happens when the engine fires it, and the tracer hooks
fire where the waits and busy intervals end.  The differential tests in
``test_fastpath.py`` compare the two.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from typing import Any

from repro.core import (
    Burst,
    BurstKernel,
    END_OF_STREAM,
    ItemKernel,
    KernelStats,
    PipelineResult,
    Simulator,
    Stream,
)


def _count(stage: ItemKernel | BurstKernel, value: Any) -> int:
    """How many items ``value`` counts as at ``stage``."""
    if isinstance(stage, ItemKernel):
        return 1
    if not isinstance(value, Burst):
        raise TypeError(
            f"kernel {stage.spec.name!r} expected Burst, got "
            f"{type(value).__name__}"
        )
    return value.count


def _stalled(sim, stats: KernelStats, name: str, event, side: str):
    """Wait on a blocked get or put and charge the wait as a stall."""
    start = sim.now
    value = yield event
    stalled = sim.now - start
    if side == "input":
        stats.stall_in_ps += stalled
    else:
        stats.stall_out_ps += stalled
    tracer = sim._tracer
    if tracer is not None and stalled:
        tracer.kernel_stall(name, start, stalled, side)
    return value


def _kernel(sim, stage, stats: KernelStats, inp: Stream, out: Stream):
    spec, name = stage.spec, stage.spec.name
    first = True
    while True:
        ok, item = inp.try_get()
        if not ok:
            item = yield from _stalled(sim, stats, name, inp.get(), "input")
        if item is END_OF_STREAM:
            if not out.try_put(END_OF_STREAM):
                yield from _stalled(sim, stats, name, out.put(END_OF_STREAM),
                                    "output")
            return
        n = _count(stage, item)
        stats.items_in += n
        if first:
            cycles = spec.latency_cycles(n)
            first = False
        else:
            cycles = spec.occupancy_cycles(n)
        delay = spec.clock.cycles_to_ps(cycles)
        stats.busy_ps += delay
        busy_start = sim.now
        if delay:
            yield sim.timeout(delay)
        if sim._tracer is not None:
            sim._tracer.kernel_busy(name, busy_start, delay, n)
        result = stage.fn(item)
        if result is None:
            continue
        stats.items_out += _count(stage, result)
        if not out.try_put(result):
            yield from _stalled(sim, stats, name, out.put(result), "output")


def build_stepped(
    sim: Simulator,
    items: Iterable[Any],
    stages: Sequence[ItemKernel | BurstKernel],
    depths: Sequence[int],
    interval_ps: int = 0,
) -> Callable[[], PipelineResult]:
    """Spawn the chain's processes on ``sim``.

    Returns a function that reads the chain's result once ``sim.run()``
    has drained it.  Several chains may share one simulator.
    """
    streams = [Stream(sim, depth, name=f"s{i}")
               for i, depth in enumerate(depths)]
    stats = [KernelStats() for _ in stages]
    received: list[Any] = []
    # Items the source put and the sink took (a burst counts its items),
    # and when the sink took END_OF_STREAM.
    tally = {"sent": 0, "received": 0}
    done: list[int] = []

    def source():
        out = streams[0]
        for item in items:
            if interval_ps:
                yield sim.timeout(interval_ps)
            if not out.try_put(item):
                yield out.put(item)
            tally["sent"] += item.count if isinstance(item, Burst) else 1
        if not out.try_put(END_OF_STREAM):
            yield out.put(END_OF_STREAM)

    def sink():
        inp = streams[-1]
        while True:
            ok, item = inp.try_get()
            if not ok:
                item = yield inp.get()
            if item is END_OF_STREAM:
                done.append(sim.now)
                return
            received.append(item)
            tally["received"] += item.count if isinstance(item, Burst) else 1

    sim.spawn(source(), name="source")
    for stage, kernel_stats, inp, out in zip(stages, stats, streams,
                                             streams[1:]):
        sim.spawn(_kernel(sim, stage, kernel_stats, inp, out),
                  name=stage.spec.name)
    sim.spawn(sink(), name="sink")

    def result() -> PipelineResult:
        (done_at,) = done
        return PipelineResult(
            done_at_ps=done_at,
            received=received,
            items_sent=tally["sent"],
            items_received=tally["received"],
            kernels=tuple(stats),
            streams=tuple(stream.stats for stream in streams),
        )

    return result


def run_stepped(
    items: Iterable[Any],
    stages: Sequence[ItemKernel | BurstKernel],
    depths: Sequence[int],
    interval_ps: int = 0,
) -> PipelineResult:
    """The chain on its own simulator, stepped to the end."""
    sim = Simulator()
    result = build_stepped(sim, items, stages, depths, interval_ps)
    sim.run()
    return result()
