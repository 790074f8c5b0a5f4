"""Dataflow pipeline chains, timed as one max-plus recurrence.

A ``source -> kernel... -> sink`` chain over bounded FIFO streams is a
deterministic max-plus system: every get, busy interval and put
resolves at a time given by a recurrence over earlier times —

* a consumer's get resolves at ``max(ask, avail)``;
* a kernel is busy for a delay that depends only on its
  :class:`~repro.core.kernel.KernelSpec` (II, depth, unroll) and the
  item/burst size: ``latency_cycles(n)`` for its first input,
  ``occupancy_cycles(n)`` after;
* a producer's put into a depth-``d`` FIFO resolves at
  ``max(ready, get_time[n - d])`` — backpressure in closed form.

:func:`run_pipeline` is the one way such a chain is timed.  It solves
the recurrence in one pass over every stage per item (the
``END_OF_STREAM`` token included), with no simulator, no stream
objects and no event heap, and it keeps what an HLS schedule keeps:
when each get, busy interval and put starts and ends.  Each kernel's
``fn`` runs once per input, in order; it must not read shared mutable
state across stages.

Stream ``i`` (named ``s<i>``) feeds stage ``i``: stream 0 carries the
source's items, and the last stream feeds the sink.

Tracing: with a process-wide default tracer installed
(:func:`~repro.obs.trace.set_default_tracer`, as ``repro run --trace``
does) a call starts its own timeline on it and records every busy
interval (``kernel_busy``) and every wait that lasts longer than zero
(``kernel_stall`` on the waiting kernel, ``stream_stall`` on the
stream).  Without one, no tracer code runs.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Any

from ..obs.trace import get_default_tracer
from .kernel import BurstKernel, ItemKernel
from .stream import Burst, END_OF_STREAM, StreamStats

__all__ = ["KernelStats", "PipelineResult", "run_pipeline"]


@dataclass(slots=True)
class KernelStats:
    """One kernel stage's counters.

    ``items_in``/``items_out`` count inputs and outputs (a burst counts
    its items in a :class:`~repro.core.kernel.BurstKernel`, one in an
    :class:`~repro.core.kernel.ItemKernel`); the stalls are the waits on
    its input and output streams.
    """

    items_in: int = 0
    items_out: int = 0
    busy_ps: int = 0
    stall_in_ps: int = 0
    stall_out_ps: int = 0


@dataclass(frozen=True, slots=True)
class PipelineResult:
    """What one chain did: completion time, payloads and counters.

    ``done_at_ps`` is when the sink took ``END_OF_STREAM``; ``received``
    holds the payloads the sink took, in order.  ``items_sent`` and
    ``items_received`` count the source's and the sink's items (a burst
    counts its items).  ``streams[i]`` counts stream ``i``'s traffic,
    ``END_OF_STREAM`` included as one put and one get.
    """

    done_at_ps: int
    received: list[Any]
    items_sent: int
    items_received: int
    kernels: tuple[KernelStats, ...]
    streams: tuple[StreamStats, ...]


def run_pipeline(
    items: Iterable[Any],
    stages: Sequence[ItemKernel | BurstKernel],
    depths: Sequence[int],
    interval_ps: int = 0,
) -> PipelineResult:
    """Time ``items`` through ``stages`` over FIFOs of the given depths.

    The source puts one item every ``interval_ps`` (0: as fast as
    backpressure allows), starting at t = 0.  ``depths[i]`` is the depth
    of stream ``i``; there is one stream more than there are stages.
    A non-``Burst`` on a stream a ``BurstKernel`` reads or writes raises
    ``TypeError`` naming the kernel (its producer's name when both are
    burst kernels).
    """
    if len(depths) != len(stages) + 1:
        raise ValueError(
            f"{len(stages)} stages need {len(stages) + 1} stream depths, "
            f"got {len(depths)}"
        )
    if min(depths) < 1:
        raise ValueError(f"stream depths must be >= 1, got {list(depths)}")
    tracer = get_default_tracer()
    if tracer is not None:
        tracer.new_timeline()
    streams = range(len(depths))
    names = [f"s{i}" for i in streams]
    # Stream i runs from ``chain[i]`` to ``chain[i + 1]``: the source
    # and the sink are None, the kernel stages sit between them.
    # ``free[j]`` is when chain[j] next acts: its last put (or, after a
    # drop, the end of its busy interval), or the sink's last get.
    chain: list[Any] = [None, *stages, None]
    free = [0] * len(chain)
    # The consumer's last ``depth`` get times per stream: putting item n
    # into a depth-d FIFO waits for get n-d, this window's head.  It
    # starts full of zeros, which never holds a put back.
    window = [deque([0] * d, maxlen=d) for d in depths]
    puts = [0] * len(depths)
    counts = [0] * len(depths)
    p_stall = [0] * len(depths)
    c_stall = [0] * len(depths)
    # A BurstKernel producer or consumer admits only bursts on a stream;
    # the producer reports a bad output first.
    burst_only = [
        next((c.spec.name for c in pair if isinstance(c, BurstKernel)), None)
        for pair in zip(chain, chain[1:])
    ]
    kernel_name = [None if c is None else c.spec.name for c in chain]
    per_item = [isinstance(k, ItemKernel) for k in stages]
    first = [True] * len(stages)
    # Busy time per input count once the pipeline is full.
    steady: list[dict[int, int]] = [{} for _ in stages]
    busy = [0] * len(stages)
    last = streams[-1]
    received: list[Any] = []

    for item in [*items, END_OF_STREAM]:
        eos = item is END_OF_STREAM
        ready = free[0] + interval_ps if not eos else free[0]
        value = item
        for i in streams:
            # Stage i-1 (or the source) puts ``value`` into stream i
            # once it has room ...
            head = window[i]
            put = head[0]
            if put > ready:
                p_stall[i] += put - ready
                if tracer is not None:
                    tracer.stream_stall(names[i], "producer", ready,
                                        put - ready)
                    if kernel_name[i] is not None:
                        tracer.kernel_stall(kernel_name[i], ready,
                                            put - ready, "output")
            else:
                put = ready
            free[i] = put
            if isinstance(value, Burst):
                count = value.count
            elif burst_only[i] and not eos:
                raise TypeError(
                    f"kernel {burst_only[i]!r} expected Burst, got "
                    f"{type(value).__name__}"
                )
            else:
                count = 1
            puts[i] += 1
            counts[i] += count
            # ... and stage i (or the sink) gets it once it asks.
            get = free[i + 1]
            if put > get:
                c_stall[i] += put - get
                if tracer is not None:
                    tracer.stream_stall(names[i], "consumer", get, put - get)
                    if kernel_name[i + 1] is not None:
                        tracer.kernel_stall(kernel_name[i + 1], get,
                                            put - get, "input")
                get = put
            head.append(get)
            if i == last:
                free[i + 1] = get
                if not eos:
                    received.append(value)
                break
            if eos:
                ready = get
                continue
            spec = stages[i].spec
            if per_item[i]:
                count = 1
            if first[i]:
                first[i] = False
                delay = spec.clock.cycles_to_ps(spec.latency_cycles(count))
            else:
                delay = steady[i].get(count)
                if delay is None:
                    delay = steady[i][count] = spec.clock.cycles_to_ps(
                        spec.occupancy_cycles(count))
            busy[i] += delay
            if tracer is not None:
                tracer.kernel_busy(spec.name, get, delay, count)
            ready = get + delay
            value = stages[i].fn(value)
            if value is None:
                free[i + 1] = ready
                break

    # Every stream carries its items plus END_OF_STREAM (counted as one)
    # and its consumer gets each put.
    kernels = []
    for i in range(len(stages)):
        counted = puts if per_item[i] else counts
        kernels.append(KernelStats(
            items_in=counted[i] - 1,
            items_out=counted[i + 1] - 1,
            busy_ps=busy[i],
            stall_in_ps=c_stall[i],
            stall_out_ps=p_stall[i + 1],
        ))
    return PipelineResult(
        done_at_ps=free[-1],
        received=received,
        items_sent=counts[0] - 1,
        items_received=counts[-1] - 1,
        kernels=tuple(kernels),
        streams=tuple(
            StreamStats(puts=puts[i], gets=puts[i], items=counts[i],
                        producer_stall_ps=p_stall[i],
                        consumer_stall_ps=c_stall[i])
            for i in streams
        ),
    )
