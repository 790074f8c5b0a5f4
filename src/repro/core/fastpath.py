"""Analytic fast-forward for dataflow pipeline chains.

The event engine steps every item of every burst through the heap, so a
long pipeline run costs hundreds of Python-level operations per item.
But a linear ``Source -> kernel... -> Sink`` chain with bounded FIFO
streams is a *deterministic max-plus system*: every get, busy interval
and put resolves at a time given by a recurrence over earlier times —

* a consumer's get resolves at ``max(ask, avail)``;
* a kernel is busy for a delay that depends only on its
  :class:`~repro.core.kernel.KernelSpec` (II, depth, unroll) and the
  item/burst size;
* a producer's put into a depth-``d`` FIFO resolves at
  ``max(ready, get_time[n - d])`` — backpressure in closed form.

This module solves that recurrence directly, one pass over every stage
per item (``END_OF_STREAM`` included), with no events, no heap and no
generator resumptions.  Each kernel's ``fn`` runs once per item, in
order, exactly as in the stepped simulation.

Eligibility — :func:`try_fast_forward` falls back to the event loop
unless it can prove the closed form safe:

* fast-forward is enabled (:func:`set_fast_forward`; on by default);
* no tracer is attached (observability wants per-event hooks);
* every process in the simulator belongs to a registered pipeline
  component, and none has started yet (``run(until=...)``, faults,
  timeouts or extra processes all disqualify);
* components form linear chains of exactly one ``Source``, zero or
  more ``ItemKernel``/``BurstKernel`` stages, and one ``Sink``, over
  plain single-producer/single-consumer :class:`~repro.core.stream.Stream`
  instances that are empty and waiter-free;
* the source's item sequence is a concrete ``list``/``tuple``/``range``.

Guarantees when it engages — every counter it reports is identical to
the event-driven run: payloads and their order, ``done_at_ps``,
``sim.now``, ``Source.count``, ``Sink.items``, per-kernel
``items_in``/``items_out``, ``busy_ps``, ``stall_in_ps``/``stall_out_ps``
and ``_first``, and per-stream ``puts``, ``gets``, ``items``,
``producer_stall_ps`` and ``consumer_stall_ps``.  Kernels' ``fn``
callables must not read the simulation clock or share mutable state
across stages (none in this repo do).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from typing import Any

from .stream import Burst, END_OF_STREAM, Stream

__all__ = ["set_fast_forward", "try_fast_forward"]

_enabled = True


def set_fast_forward(enabled: bool | None) -> None:
    """Force fast-forward on/off; ``None`` restores the default (on)."""
    global _enabled
    _enabled = True if enabled is None else enabled


# -- eligibility -----------------------------------------------------------


def _eligible_chains(sim) -> list[list[Any]] | None:
    """Partition the sim's components into linear chains, or ``None``."""
    from .kernel import BurstKernel, ItemKernel, Sink, Source

    comps = sim._pipeline_components
    if not comps:
        return None
    allowed = (Source, Sink, ItemKernel, BurstKernel)
    comp_procs: set[int] = set()
    for comp in comps:
        # Exact types only: a subclass may override timing behaviour.
        if type(comp) not in allowed:
            return None
        comp_procs.add(id(comp.process))
    procs = sim._processes
    if len(procs) != len(comps):
        return None
    for proc in procs:
        if id(proc) not in comp_procs:
            return None
        if not proc.is_alive or proc._waiting_on is not proc._bootstrap:
            return None
    bootstraps = {id(p._bootstrap) for p in procs}
    if len(sim._heap) != len(bootstraps):
        return None
    for _, _, event in sim._heap:
        if id(event) not in bootstraps or event._cancelled:
            return None

    producers: dict[int, Any] = {}
    consumers: dict[int, Any] = {}
    streams: dict[int, Stream] = {}
    for comp in comps:
        out = getattr(comp, "out", None)
        if out is not None:
            if id(out) in producers:
                return None
            producers[id(out)] = comp
            streams[id(out)] = out
        inp = getattr(comp, "inp", None)
        if inp is not None:
            if id(inp) in consumers:
                return None
            consumers[id(inp)] = comp
            streams[id(inp)] = inp
    for sid, stream in streams.items():
        if type(stream) is not Stream:
            return None
        if stream._queue or stream._getters or stream._putters:
            return None
        if sid not in producers or sid not in consumers:
            return None

    chains: list[list[Any]] = []
    used: set[int] = set()
    for src in comps:
        if not isinstance(src, Source):
            continue
        if not isinstance(src.items, (list, tuple, range)):
            return None
        chain = [src]
        used.add(id(src))
        cur = consumers.get(id(src.out))
        for _ in range(len(comps)):
            if not isinstance(cur, (ItemKernel, BurstKernel)):
                break
            if id(cur) in used:
                return None
            chain.append(cur)
            used.add(id(cur))
            cur = consumers.get(id(cur.out))
        if not isinstance(cur, Sink) or id(cur) in used:
            return None
        chain.append(cur)
        used.add(id(cur))
        chains.append(chain)
    if not chains or len(used) != len(comps):
        return None
    return chains


# -- the solver ------------------------------------------------------------


def _solve(chain: list[Any], now: int) -> tuple[int, Callable[[], None]]:
    """Solve one Source -> kernels -> Sink chain, one item at a time.

    Returns ``(done_at, commit)``.  Nothing reaches the live components
    until ``commit()`` runs, so a ``TypeError`` raised here leaves the
    simulator untouched.
    """
    from .kernel import BurstKernel

    source, sink, kernels = chain[0], chain[-1], chain[1:-1]
    # Stage j is chain[j]; stream i is stage i's output and stage i+1's
    # input.  ``free[j]`` is when stage j next acts: its last put (or,
    # after a drop, the end of its busy interval), or the sink's last get.
    streams = [comp.out for comp in chain[:-1]]
    stages = range(len(streams))
    free = [now] * len(chain)
    # The consumer's last ``depth`` get times per stream: putting item n
    # into a depth-d FIFO waits for get n-d, this window's head.  It
    # starts full of ``now``, which never holds a put back.
    window = [deque([now] * s.depth, maxlen=s.depth) for s in streams]
    puts = [0] * len(streams)
    items = [0] * len(streams)
    p_stall = [0] * len(streams)
    c_stall = [0] * len(streams)
    # A BurstKernel producer or consumer admits only bursts on a stream;
    # the producer reports a bad output first, as in the stepped engine.
    burst_only = [
        next((c.spec.name for c in pair if isinstance(c, BurstKernel)), None)
        for pair in zip(chain, chain[1:])
    ]
    item_kernel = [not isinstance(k, BurstKernel) for k in kernels]
    first = [k._first for k in kernels]
    # Busy time per input count once the pipeline is full.
    steady: list[dict[int, int]] = [{} for _ in kernels]
    busy = [0] * len(kernels)
    interval = source.interval_ps
    last = len(streams) - 1
    received: list[Any] = []

    for item in [*source.items, END_OF_STREAM]:
        eos = item is END_OF_STREAM
        ready = free[0] + interval if interval and not eos else free[0]
        value = item
        for i in stages:
            # Stage i puts ``value`` into stream i once it has room ...
            head = window[i]
            put = head[0]
            if put > ready:
                p_stall[i] += put - ready
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
            items[i] += count
            # ... and stage i+1 gets it once it asks.
            get = free[i + 1]
            if put > get:
                c_stall[i] += put - get
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
            spec = kernels[i].spec
            if item_kernel[i]:
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
            ready = get + delay
            value = kernels[i].fn(value)
            if value is None:
                free[i + 1] = ready
                break

    def commit() -> None:
        # Every stream carries its items plus END_OF_STREAM (counted as
        # one), its consumer gets each put, and a kernel's stalls are the
        # waits on its input and output streams.
        for i, k in enumerate(kernels):
            counted = puts if item_kernel[i] else items
            k.items_in += counted[i] - 1
            k.items_out += counted[i + 1] - 1
            k.busy_ps += busy[i]
            k.stall_in_ps += c_stall[i]
            k.stall_out_ps += p_stall[i + 1]
            k._first = first[i]
        for i, s in enumerate(streams):
            stats = s.stats
            stats.puts += puts[i]
            stats.gets += puts[i]
            stats.items += items[i]
            stats.producer_stall_ps += p_stall[i]
            stats.consumer_stall_ps += c_stall[i]
        source.count += items[0] - 1
        sink.received.extend(received)
        sink.items += items[-1] - 1
        sink.done_at_ps = free[-1]

    return free[-1], commit


def _finish_process(proc) -> None:
    """Mark a component process completed without scheduling events."""
    proc._waiting_on = None
    proc.generator.close()
    proc._value = None
    proc._ok = True
    proc._triggered = True
    proc._fired = True


def try_fast_forward(sim) -> bool:
    """Solve the sim's pipeline chains analytically when provably safe.

    Returns True when the chains were solved and the event heap was
    drained (the subsequent ``run()`` loop finds nothing to do); False
    leaves the simulator untouched for ordinary event stepping.
    """
    if not _enabled or sim._tracer is not None:
        return False
    chains = _eligible_chains(sim)
    if chains is None:
        return False
    # Solve every chain before committing any state: a TypeError from a
    # mis-wired kernel leaves the simulator untouched so the event path
    # reports it with ordinary semantics.
    solved = [_solve(chain, sim._now) for chain in chains]
    for _, commit in solved:
        commit()
    for chain in chains:
        for comp in chain:
            _finish_process(comp.process)
    sim._heap.clear()
    sim._pipeline_components.clear()
    sim._now = max(done_at for done_at, _ in solved)
    return True
