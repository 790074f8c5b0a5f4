"""Analytic fast-forward for steady-state dataflow pipeline segments.

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

This module solves that recurrence directly (no events, no heap, no
generator resumptions) and, once the chain reaches *steady state* —
every stage advancing by the same period ``lambda`` per item for several
consecutive items — stops computing maxima entirely and jumps the clock
arithmetically.  The functional side (each kernel's ``fn``) is still
applied to every item in order, so payloads, drops and per-stage
counters are identical to the stepped simulation.

Eligibility — :func:`try_fast_forward` falls back to the event loop
unless it can prove the closed form safe:

* fast-forward is enabled (:func:`set_fast_forward`; on by default);
* no tracer is attached (observability wants per-event hooks);
* every process in the simulator belongs to a registered pipeline
  component, and none has started yet (``run(until=...)``, faults,
  timeouts, extra processes, or armed stream guards all disqualify);
* components form linear chains of exactly one ``Source``, zero or
  more ``ItemKernel``/``BurstKernel`` stages, and one ``Sink``, over
  plain single-producer/single-consumer :class:`~repro.core.stream.Stream`
  instances that are empty and waiter-free;
* the source's item sequence is a concrete ``list``/``tuple``/``range``.

Guarantees when it engages: payloads and their order, ``done_at_ps``,
``sim.now``, per-kernel ``items_in/out``, ``busy_ps``,
``stall_in_ps``/``stall_out_ps``, per-stream put/get/item counts and
stall durations are identical to the event-driven run.  The two purely
diagnostic stream counters (``*_stall_events``, ``high_watermark``) are
reconstructed analytically and can differ on zero-duration
same-timestamp races; everything a result table reports is exact.
Kernels' ``fn`` callables must not read the simulation clock or share
mutable state across stages (none in this repo do).
"""

from __future__ import annotations

from collections import deque
from typing import Any

from .stream import Burst, Stream

__all__ = [
    "counters",
    "is_enabled",
    "set_fast_forward",
    "try_fast_forward",
]

_enabled = True

#: Module-wide instrumentation: how many ``run()`` entries engaged the
#: analytic path vs fell back to event stepping (tests reset freely).
counters = {"applied": 0, "fallback": 0}

# Steady-state machinery: consecutive identical-delta items required
# before jumping, and the minimum remaining work that makes a jump
# worthwhile.
_STEADY_WINDOW = 3
_MIN_JUMP_ITEMS = 16


def set_fast_forward(enabled: bool | None) -> None:
    """Force fast-forward on/off; ``None`` restores the default (on)."""
    global _enabled
    _enabled = True if enabled is None else enabled


def is_enabled() -> bool:
    """True when the analytic fast-forward may engage (default: yes)."""
    return _enabled


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
        if stream._queue or stream._getters or stream._putters or stream._guards:
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


def _count(item: Any) -> int:
    return item.count if isinstance(item, Burst) else 1


class _StreamState:
    """Per-stream recurrence state and deferred diagnostics."""

    __slots__ = (
        "stream", "depth", "recent_gets", "puts", "gets", "items",
        "p_stall_events", "c_stall_events", "p_stall_ps", "c_stall_ps",
        "merge_puts", "merge_gets", "occ", "watermark",
    )

    def __init__(self, stream: Stream) -> None:
        self.stream = stream
        self.depth = stream.depth
        # Sliding window of the consumer's last ``depth`` get times:
        # putting item n into a depth-d FIFO waits for get_time[n-d],
        # which is exactly the head of this deque once it is full.
        self.recent_gets: deque[int] = deque(maxlen=stream.depth)
        self.puts = 0
        self.gets = 0
        self.items = 0
        self.p_stall_events = 0
        self.c_stall_events = 0
        self.p_stall_ps = 0
        self.c_stall_ps = 0
        # Enqueue/dequeue instants of items that actually transited the
        # FIFO (direct consumer handoffs never occupy a slot), merged
        # into an occupancy walk for the high-watermark diagnostic.
        self.merge_puts: list[int] = []
        self.merge_gets: list[int] = []
        self.occ = 0
        self.watermark = 0

    def put_time(self, ready: int) -> int:
        """When a put that is ready at ``ready`` resolves (backpressure)."""
        gets = self.recent_gets
        if len(gets) == self.depth:
            space = gets[0]
            if space > ready:
                self.p_stall_events += 1
                self.p_stall_ps += space - ready
                return space
        return ready

    def merge_watermark(self) -> None:
        """Fold pending enqueue/dequeue instants into the watermark."""
        puts, gets = self.merge_puts, self.merge_gets
        occ, peak = self.occ, self.watermark
        i = j = 0
        n_puts, n_gets = len(puts), len(gets)
        while i < n_puts:
            # Ties release the slot first (get before put), matching the
            # engine's drain-then-enqueue order for blocked producers.
            if j < n_gets and gets[j] <= puts[i]:
                occ -= 1
                j += 1
                continue
            occ += 1
            if occ > peak:
                peak = occ
            i += 1
        self.occ = occ - (n_gets - j)
        self.watermark = peak
        puts.clear()
        gets.clear()

    def flush(self) -> None:
        """Apply accumulated state to the live ``StreamStats``."""
        self.merge_watermark()
        stats = self.stream.stats
        stats.puts += self.puts
        stats.gets += self.gets
        stats.items += self.items
        stats.producer_stall_events += self.p_stall_events
        stats.consumer_stall_events += self.c_stall_events
        stats.producer_stall_ps += self.p_stall_ps
        stats.consumer_stall_ps += self.c_stall_ps
        if self.watermark > stats.high_watermark:
            stats.high_watermark = self.watermark


class _KernelState:
    """Per-kernel recurrence state."""

    __slots__ = (
        "kernel", "is_burst", "fn", "spec", "free_at", "get_at", "busy_until",
        "items_in", "items_out", "busy_ps", "stall_in_ps", "stall_out_ps",
        "first", "_delay_cache",
    )

    def __init__(self, kernel: Any, is_burst: bool, now: int) -> None:
        self.kernel = kernel
        self.is_burst = is_burst
        self.fn = kernel.fn
        self.spec = kernel.spec
        self.free_at = now
        self.get_at = now
        self.busy_until = now
        self.items_in = 0
        self.items_out = 0
        self.busy_ps = 0
        self.stall_in_ps = 0
        self.stall_out_ps = 0
        self.first = kernel._first
        self._delay_cache: dict[tuple[bool, int], int] = {}

    def delay_for(self, count: int) -> int:
        key = (self.first, count)
        delay = self._delay_cache.get(key)
        if delay is None:
            spec = self.spec
            if self.is_burst:
                cycles = (
                    spec.latency_cycles(count)
                    if self.first
                    else spec.occupancy_cycles(count)
                )
            else:
                cycles = spec.depth if self.first else spec.ii
            delay = spec.clock.cycles_to_ps(cycles)
            self._delay_cache[key] = delay
        return delay

    def flush(self) -> None:
        k = self.kernel
        k.items_in += self.items_in
        k.items_out += self.items_out
        k.busy_ps += self.busy_ps
        k.stall_in_ps += self.stall_in_ps
        k.stall_out_ps += self.stall_out_ps
        k._first = self.first


class _ChainSolver:
    """Solves one Source -> kernels -> Sink chain without events."""

    def __init__(self, sim, chain: list[Any]) -> None:
        from .kernel import BurstKernel

        self.sim = sim
        self.source = chain[0]
        self.sink = chain[-1]
        now = sim._now
        self.kernels = [
            _KernelState(k, isinstance(k, BurstKernel), now)
            for k in chain[1:-1]
        ]
        # streams[i] is the output stream of stage i (source = stage 0).
        self.streams = [_StreamState(comp.out) for comp in chain[:-1]]
        self.t_src = now
        self.t_sink = now
        self.src_count = 0
        self.sink_items = 0
        self.received: list[Any] = []
        self.done_at: int | None = None

    # -- one item through every stage -----------------------------------

    def _cascade(self, item: Any, precomputed: list[Any] | None = None) -> None:
        """Advance every stage by one item, exactly.

        ``precomputed`` carries per-stage ``fn`` results already applied
        by a bailed steady run, so no ``fn`` ever runs twice on the same
        item (they may be impure or mutate bursts in place).
        """
        interval = self.source.interval_ps
        ready = self.t_src + interval if interval else self.t_src
        stream = self.streams[0]
        p = stream.put_time(ready)
        self.t_src = p
        self.src_count += _count(item)
        stream.puts += 1
        stream.items += _count(item)
        value: Any = item
        avail = p
        for idx, ks in enumerate(self.kernels):
            stream = self.streams[idx]
            ask = ks.free_at
            if avail > ask:
                stream.c_stall_events += 1
                stream.c_stall_ps += avail - ask
                ks.stall_in_ps += avail - ask
                g = avail
            else:
                g = ask
                stream.merge_puts.append(avail)
                stream.merge_gets.append(g)
            stream.gets += 1
            stream.recent_gets.append(g)
            ks.get_at = g
            if ks.is_burst and not isinstance(value, Burst):
                raise TypeError(
                    f"kernel {ks.spec.name!r} expected Burst, got "
                    f"{type(value).__name__}"
                )
            count = _count(value)
            ks.items_in += count
            delay = ks.delay_for(count)
            ks.first = False
            ks.busy_ps += delay
            b = g + delay
            ks.busy_until = b
            if precomputed is not None and idx < len(precomputed):
                result = precomputed[idx]
            else:
                result = ks.fn(value)
            if result is None:
                ks.free_at = b
                return
            ks.items_out += _count(result)
            out_stream = self.streams[idx + 1]
            p = out_stream.put_time(b)
            ks.stall_out_ps += p - b
            ks.free_at = p
            out_stream.puts += 1
            out_stream.items += _count(result)
            value = result
            avail = p
        stream = self.streams[-1]
        ask = self.t_sink
        if avail > ask:
            stream.c_stall_events += 1
            stream.c_stall_ps += avail - ask
            g = avail
        else:
            g = ask
            stream.merge_puts.append(avail)
            stream.merge_gets.append(g)
        stream.gets += 1
        stream.recent_gets.append(g)
        self.t_sink = g
        self.received.append(value)
        self.sink_items += _count(value)

    def _eos(self) -> None:
        """Propagate END_OF_STREAM and stamp completion."""
        stream = self.streams[0]
        p = stream.put_time(self.t_src)
        self.t_src = p
        stream.puts += 1
        stream.items += 1
        avail = p
        for idx, ks in enumerate(self.kernels):
            stream = self.streams[idx]
            ask = ks.free_at
            if avail > ask:
                stream.c_stall_events += 1
                stream.c_stall_ps += avail - ask
                ks.stall_in_ps += avail - ask
                g = avail
            else:
                g = ask
                stream.merge_puts.append(avail)
                stream.merge_gets.append(g)
            stream.gets += 1
            stream.recent_gets.append(g)
            out_stream = self.streams[idx + 1]
            p = out_stream.put_time(g)
            ks.stall_out_ps += p - g
            ks.free_at = p
            out_stream.puts += 1
            out_stream.items += 1
            avail = p
        stream = self.streams[-1]
        ask = self.t_sink
        if avail > ask:
            stream.c_stall_events += 1
            stream.c_stall_ps += avail - ask
            g = avail
        else:
            g = ask
            stream.merge_puts.append(avail)
            stream.merge_gets.append(g)
        stream.gets += 1
        stream.recent_gets.append(g)
        self.t_sink = g
        self.done_at = g

    # -- steady-state jump ----------------------------------------------

    def _state_vector(self) -> list[int]:
        vec = [self.t_src]
        for ks in self.kernels:
            vec.append(ks.get_at)
            vec.append(ks.busy_until)
            vec.append(ks.free_at)
        vec.append(self.t_sink)
        return vec

    def _stat_vector(self) -> list[int]:
        vec: list[int] = []
        for ks in self.kernels:
            vec += [ks.items_in, ks.items_out, ks.busy_ps,
                    ks.stall_in_ps, ks.stall_out_ps]
        for ss in self.streams:
            vec += [ss.puts, ss.gets, ss.items, ss.p_stall_events,
                    ss.c_stall_events, ss.p_stall_ps, ss.c_stall_ps]
        vec.append(self.sink_items)
        vec.append(self.src_count)
        return vec

    def _apply_jump(self, n: int, lam: int, stat_delta: list[int]) -> None:
        """Advance every stage by ``n`` steady periods arithmetically."""
        shift = n * lam
        self.t_src += shift
        self.t_sink += shift
        for ks in self.kernels:
            ks.get_at += shift
            ks.busy_until += shift
            ks.free_at += shift
        it = iter(stat_delta)
        for ks in self.kernels:
            ks.items_in += n * next(it)
            ks.items_out += n * next(it)
            ks.busy_ps += n * next(it)
            ks.stall_in_ps += n * next(it)
            ks.stall_out_ps += n * next(it)
        for ss in self.streams:
            ss.puts += n * next(it)
            ss.gets += n * next(it)
            ss.items += n * next(it)
            ss.p_stall_events += n * next(it)
            c_ev = next(it)
            ss.c_stall_events += n * c_ev
            ss.p_stall_ps += n * next(it)
            ss.c_stall_ps += n * next(it)
            # The consumer's recent get times advance one period per
            # item; rebuild the sliding window arithmetically.
            gets = ss.recent_gets
            if gets:
                last = gets[-1]
                d = ss.depth
                if n >= d:
                    rebuilt = [last + (n - d + 1 + j) * lam for j in range(d)]
                else:
                    rebuilt = (list(gets)
                               + [last + (j + 1) * lam for j in range(n)])[-d:]
                gets.clear()
                gets.extend(rebuilt)
            # Steady occupancy is periodic: fold what we know, then note
            # the one-slot transit of enqueue-mode items (no consumer
            # stall per item means each item crossed the FIFO).
            ss.merge_watermark()
            if c_ev == 0 and ss.watermark < ss.occ + 1:
                ss.watermark = ss.occ + 1
        self.sink_items += n * next(it)
        self.src_count += n * next(it)

    def solve(self) -> None:
        items = self.source.items
        n = len(items)
        prev_vec: list[int] | None = None
        prev_delta: list[int] | None = None
        prev_stats: list[int] | None = None
        stat_delta: list[int] | None = None
        streak = 0
        i = 0
        while i < n:
            self._cascade(items[i])
            i += 1
            vec = self._state_vector()
            if prev_vec is not None:
                delta = [a - b for a, b in zip(vec, prev_vec)]
                stats = self._stat_vector()
                if prev_delta == delta and len(set(delta)) == 1:
                    sdelta = [a - b for a, b in zip(stats, prev_stats)]
                    if streak and sdelta == stat_delta:
                        streak += 1
                    else:
                        streak = 1
                        stat_delta = sdelta
                else:
                    streak = 0
                prev_delta = delta
                prev_stats = stats
            else:
                prev_stats = self._stat_vector()
            prev_vec = vec
            if streak >= _STEADY_WINDOW and n - i > _MIN_JUMP_ITEMS:
                taken, partial = self._steady_run(
                    items, i, n, prev_delta[0], stat_delta
                )
                i += taken
                if partial is not None:
                    # The steady pattern broke mid-chain; finish that
                    # item exactly, reusing the fn results already
                    # computed for its earlier stages.
                    self._cascade(items[i], precomputed=partial)
                    i += 1
                prev_vec = None
                prev_delta = None
                prev_stats = None
                stat_delta = None
                streak = 0
        self._eos()

    def _steady_run(
        self, items, start: int, n: int, lam: int, stat_delta: list[int]
    ) -> tuple[int, list[Any] | None]:
        """Absorb items arithmetically while the timing pattern holds.

        Returns ``(taken, partial)``: how many items were absorbed, and
        — when the pattern broke mid-chain — the per-stage ``fn``
        results already computed for the breaking item, so the exact
        cascade can finish it without re-running impure ``fn``s.
        """
        it = iter(stat_delta)
        steady_in: list[int] = []
        steady_out: list[int] = []
        for _ in self.kernels:
            steady_in.append(next(it))
            steady_out.append(next(it))
            next(it)
            next(it)
            next(it)
        kernels = self.kernels
        received = self.received
        taken = 0
        i = start
        partial: list[Any] | None = None
        while i < n:
            value = items[i]
            ok = True
            results: list[Any] = []
            for idx, ks in enumerate(kernels):
                if _count(value) != steady_in[idx] or (
                    ks.is_burst and not isinstance(value, Burst)
                ):
                    ok = False
                    break
                result = ks.fn(value)
                results.append(result)
                if result is None or _count(result) != steady_out[idx]:
                    ok = False
                    break
                value = result
            if not ok:
                partial = results
                break
            received.append(value)
            taken += 1
            i += 1
        if taken:
            self._apply_jump(taken, lam, stat_delta)
        return taken, partial

    def flush(self) -> None:
        """Apply accumulated state to the live components."""
        for ks in self.kernels:
            ks.flush()
        for ss in self.streams:
            ss.flush()
        self.source.count += self.src_count
        sink = self.sink
        sink.received.extend(self.received)
        sink.items += self.sink_items
        if self.done_at is not None:
            sink.done_at_ps = self.done_at


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
    if not is_enabled() or sim._tracer is not None:
        counters["fallback"] += 1
        return False
    chains = _eligible_chains(sim)
    if chains is None:
        counters["fallback"] += 1
        return False
    solvers = [_ChainSolver(sim, chain) for chain in chains]
    # Solve every chain before committing any state: a TypeError from a
    # mis-wired kernel leaves the simulator untouched so the event path
    # reports it with ordinary semantics.
    for solver in solvers:
        solver.solve()
    for solver in solvers:
        solver.flush()
    for chain in chains:
        for comp in chain:
            _finish_process(comp.process)
    sim._heap.clear()
    sim._pipeline_components.clear()
    end = max(solver.done_at for solver in solvers)
    if end > sim._now:
        sim._now = end
    counters["applied"] += 1
    return True
