"""Simulation event tracing with Chrome ``trace_event`` export.

A :class:`Tracer` is the recording half of the observability layer.
Instrumented components (the event engine, streams, kernels, links,
memory ports and banks) call its domain hooks; the tracer turns the
calls into

* **slices** — duration events on a named track (one track per
  component), exportable to the Chrome ``trace_event`` JSON format and
  loadable in ``chrome://tracing`` or https://ui.perfetto.dev;
* **metrics** — counters in an attached
  :class:`~repro.obs.metrics.MetricsRegistry` (event volume, stalls,
  bank conflicts), cheap enough to leave on for whole benchmarks.

The contract with the simulator is *trace transparency*: hooks only
record — they never create or schedule simulation events — so enabling
a tracer cannot change event order, ``sim.now`` trajectories, or any
process result.  ``tests/core/test_sim_properties.py`` asserts this
over randomized programs.

Instrumented call sites guard with ``if tracer is not None``; when no
tracer is attached (the default) the simulation runs the exact seed
code path with zero observability overhead.

A process-wide *default tracer* can be installed with
:func:`set_default_tracer`; a :class:`~repro.core.sim.Simulator`
constructed without an explicit ``tracer`` picks it up, and so does
every :func:`~repro.core.pipeline.run_pipeline` call.  ``python -m
repro run eN --trace out.json`` uses this to trace experiments that
build their simulators and pipelines internally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, IO

from .metrics import MetricsRegistry

__all__ = [
    "TraceEvent",
    "Tracer",
    "get_default_tracer",
    "set_default_tracer",
]

_PS_PER_US = 1_000_000


@dataclass(slots=True)
class TraceEvent:
    """One recorded occurrence.

    ``ph`` follows the Chrome trace_event phase vocabulary: ``"X"``
    (complete slice with a duration), ``"i"`` (instant).  Timestamps
    and durations are picoseconds of simulated time.
    """

    name: str
    cat: str
    ph: str
    ts_ps: int
    track: str
    dur_ps: int = 0
    args: dict[str, Any] = field(default_factory=dict)


# -- default tracer registry ----------------------------------------------

_default_tracer: "Tracer | None" = None


def set_default_tracer(tracer: "Tracer | None") -> None:
    """Install (or clear) the process-wide default tracer.

    Simulators and analytic components constructed afterwards without
    an explicit ``tracer`` argument will use it.  Pass ``None`` to
    restore the zero-overhead default.
    """
    global _default_tracer
    _default_tracer = tracer


def get_default_tracer() -> "Tracer | None":
    """The installed default tracer, or ``None``."""
    return _default_tracer


class Tracer:
    """Records simulation activity as trace events plus metrics.

    ``registry`` holds the counters; ``events`` the trace slices and
    instants.  Engine-level hooks (event fires, process resumes) only
    count: as trace events they would dominate the trace's size.

    A simulator binds its own clock on attach; standalone use (analytic
    components such as :class:`~repro.memory.banked.BankedMemory`)
    keeps a zero clock, which timestamps records at 0 unless the call
    site supplies explicit times.

    The events fall into *timelines*, each starting at t = 0: one per
    simulator (a new one begins when a simulator attaches) and one per
    pipeline call (:func:`~repro.core.pipeline.run_pipeline`).  The
    Chrome export gives each timeline its own ``pid``.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.events: list[TraceEvent] = []
        self._clock: Callable[[], int] = lambda: 0
        # Index into ``events`` where each timeline begins.
        self._timeline_starts = [0]

    # -- wiring ------------------------------------------------------------

    def bind_clock(self, clock: Callable[[], int]) -> None:
        """Start a new timeline on ``clock`` (a simulator does on attach)."""
        self._clock = clock
        self.new_timeline()

    def new_timeline(self) -> None:
        """Record what follows on a new timeline, which starts at t = 0."""
        if self._timeline_starts[-1] < len(self.events):
            self._timeline_starts.append(len(self.events))

    def timelines(self) -> list[list[TraceEvent]]:
        """The recorded events split by timeline, in recording order."""
        bounds = [*self._timeline_starts, len(self.events)]
        return [self.events[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]

    def now_ps(self) -> int:
        return self._clock()

    # -- generic emitters --------------------------------------------------

    def instant(self, name: str, cat: str, track: str, **args: Any) -> None:
        self.events.append(
            TraceEvent(name, cat, "i", self.now_ps(), track, args=args)
        )

    def complete(
        self,
        name: str,
        cat: str,
        track: str,
        start_ps: int,
        dur_ps: int,
        **args: Any,
    ) -> None:
        self.events.append(
            TraceEvent(name, cat, "X", start_ps, track, dur_ps, args)
        )

    # -- engine hooks ------------------------------------------------------

    def sim_event_scheduled(self, event: Any, at_ps: int) -> None:
        """Called by ``Simulator._schedule`` for every heap push."""
        self.registry.counter("sim.events.scheduled").inc()

    def sim_event_fired(self, event: Any, at_ps: int) -> None:
        """Called by ``Simulator.step`` for every event fired."""
        self.registry.counter("sim.events.fired").inc()

    def sim_event_cancelled(self, event: Any) -> None:
        """Called by ``Event.cancel`` for every abandoned wait/timer."""
        self.registry.counter("sim.events.cancelled").inc()

    def process_failed_unjoined(self, name: str, at_ps: int) -> None:
        """A failed process nobody joined, surfaced at ``run()`` exit."""
        self.registry.counter(
            "sim.process.failed_unjoined", process=name
        ).inc()
        self.events.append(
            TraceEvent(
                f"unjoined-failure:{name}", "sim.failure", "i", at_ps,
                f"process:{name}",
            )
        )

    def process_resumed(self, name: str, at_ps: int) -> None:
        """Called when a process generator is stepped."""
        self.registry.counter("sim.process.resumes", process=name).inc()

    def process_finished(self, name: str, at_ps: int, ok: bool) -> None:
        self.registry.counter(
            "sim.process.finished", process=name, ok=ok
        ).inc()

    # -- stream hooks ------------------------------------------------------

    def stream_put(
        self, stream: str, items: int, occupancy: int, blocked: bool
    ) -> None:
        self.registry.counter("stream.puts", stream=stream).inc()
        self.registry.counter("stream.items", stream=stream).inc(items)
        self.registry.gauge("stream.occupancy", stream=stream).set(occupancy)
        if blocked:
            self.registry.counter("stream.put_blocked", stream=stream).inc()

    def stream_get(self, stream: str, blocked: bool) -> None:
        self.registry.counter("stream.gets", stream=stream).inc()
        if blocked:
            self.registry.counter("stream.get_blocked", stream=stream).inc()

    def stream_stall(
        self, stream: str, side: str, start_ps: int, dur_ps: int
    ) -> None:
        """A resolved put/get stall: ``side`` is ``producer``/``consumer``."""
        self.registry.counter(
            "stream.stall_ps", stream=stream, side=side
        ).inc(dur_ps)
        if dur_ps > 0:
            self.complete(
                f"stall:{side}", "stream.stall", f"stream:{stream}",
                start_ps, dur_ps,
            )

    # -- kernel hooks ------------------------------------------------------

    def kernel_busy(
        self, kernel: str, start_ps: int, dur_ps: int, items: int
    ) -> None:
        self.registry.counter("kernel.busy_ps", kernel=kernel).inc(dur_ps)
        self.registry.counter("kernel.items", kernel=kernel).inc(items)
        self.complete(
            kernel, "kernel.busy", f"kernel:{kernel}", start_ps, dur_ps,
            items=items,
        )

    def kernel_stall(
        self, kernel: str, start_ps: int, dur_ps: int, kind: str
    ) -> None:
        """Time a kernel spent blocked on its input/output stream."""
        self.registry.counter(
            "kernel.stall_ps", kernel=kernel, kind=kind
        ).inc(dur_ps)
        if dur_ps > 0:
            self.complete(
                f"stall:{kind}", "kernel.stall", f"kernel:{kernel}",
                start_ps, dur_ps,
            )

    # -- network hooks -----------------------------------------------------

    def link_transfer(
        self,
        link: str,
        start_ps: int,
        dur_ps: int,
        nbytes: int,
        dst: Any = None,
    ) -> None:
        self.registry.counter("link.transfers", link=link).inc()
        self.registry.counter("link.bytes", link=link).inc(max(0, nbytes))
        self.registry.counter("link.busy_ps", link=link).inc(dur_ps)
        self.complete(
            "xfer", "link.busy", f"link:{link}", start_ps, dur_ps,
            nbytes=nbytes, dst=dst,
        )

    # -- fault-injection hooks ---------------------------------------------

    def fault_injected(
        self, kind: str, site: str, at_ps: int | None = None, **args: Any
    ) -> None:
        """An injected fault (drop / latency_spike / node_down / crash).

        ``at_ps`` lets analytic (non-simulator) call sites timestamp
        the instant explicitly; event-driven sites omit it and get the
        bound clock.  Faults land as instant events on a per-site
        ``faults:`` track so Chrome traces show them inline.
        """
        self.registry.counter("faults.injected", kind=kind, site=site).inc()
        ts = at_ps if at_ps is not None else self.now_ps()
        self.events.append(
            TraceEvent(kind, "fault", "i", ts, f"faults:{site}", args=args)
        )

    def retry_attempted(
        self, site: str, attempt: int, at_ps: int | None = None
    ) -> None:
        """A request attempt failed (drop/timeout) and will be retried."""
        self.registry.counter("faults.retries", site=site).inc()
        ts = at_ps if at_ps is not None else self.now_ps()
        self.events.append(
            TraceEvent(
                f"retry#{attempt}", "fault.retry", "i", ts, f"faults:{site}",
            )
        )

    def deadline_missed(self, site: str) -> None:
        """A request exhausted its retries."""
        self.registry.counter("faults.deadline_missed", site=site).inc()
        self.events.append(
            TraceEvent("deadline-missed", "fault.deadline", "i",
                       self.now_ps(), f"faults:{site}")
        )

    # -- memory hooks ------------------------------------------------------

    def memory_access(
        self,
        port: str,
        start_ps: int,
        dur_ps: int,
        nbytes: int,
        pattern: str,
    ) -> None:
        """One request occupying a FIFO-serialised memory port."""
        self.registry.counter("memory.requests", port=port).inc()
        self.registry.counter("memory.bytes", port=port).inc(max(0, nbytes))
        self.registry.counter("memory.busy_ps", port=port).inc(dur_ps)
        self.complete(
            pattern, "memory.busy", f"memory:{port}", start_ps, dur_ps,
            nbytes=nbytes,
        )

    def bank_access(
        self,
        memory: str,
        channel: int,
        n_accesses: int,
        busy_ps: int,
    ) -> None:
        """A batch's accesses landing on one channel of a banked memory."""
        self.registry.counter(
            "memory.bank_accesses", memory=memory, channel=channel
        ).inc(n_accesses)
        self.registry.counter(
            "memory.bank_busy_ps", memory=memory, channel=channel
        ).inc(busy_ps)
        if busy_ps > 0:
            start = self.now_ps()
            self.complete(
                f"ch{channel}", "memory.busy", f"bank:{memory}:ch{channel}",
                start, busy_ps, n_accesses=n_accesses,
            )

    def bank_conflict(self, memory: str, channel: int, n_regions: int) -> None:
        """Several regions' accesses serialised on one channel."""
        self.registry.counter(
            "memory.bank_conflicts", memory=memory, channel=channel
        ).inc()
        self.instant(
            f"conflict:ch{channel}", "memory.conflict",
            f"bank:{memory}:ch{channel}", regions=n_regions,
        )

    # -- analysis ----------------------------------------------------------

    def busy_by_track(self) -> dict[str, int]:
        """Total slice duration per track for ``*.busy`` categories."""
        busy: dict[str, int] = {}
        for ev in self.events:
            if ev.ph == "X" and ev.cat.endswith(".busy"):
                busy[ev.track] = busy.get(ev.track, 0) + ev.dur_ps
        return busy

    def stall_by_track(self) -> dict[str, int]:
        """Total slice duration per track for ``*.stall`` categories."""
        stall: dict[str, int] = {}
        for ev in self.events:
            if ev.ph == "X" and ev.cat.endswith(".stall"):
                stall[ev.track] = stall.get(ev.track, 0) + ev.dur_ps
        return stall

    def span_ps(self) -> int:
        """Last slice end (or instant) over all recorded events."""
        end = 0
        for ev in self.events:
            end = max(end, ev.ts_ps + ev.dur_ps)
        return end

    def utilisation_summary(self) -> str:
        """Plain-text per-component busy/stall/utilisation table.

        Every timeline restarts at t = 0, so a track's utilisation is
        its busy time over the summed spans of the timelines it was
        recorded on.
        """
        busy = self.busy_by_track()
        stall = self.stall_by_track()
        walls: dict[str, int] = {}
        timelines = self.timelines()
        total = 0
        for events in timelines:
            span = max(ev.ts_ps + ev.dur_ps for ev in events)
            total += span
            for track in {ev.track for ev in events}:
                walls[track] = walls.get(track, 0) + span
        tracks = sorted(set(busy) | set(stall))
        lines = ["component utilisation", "---------------------"]
        if not tracks:
            lines.append("(no slices recorded)")
            return "\n".join(lines)
        width = max(len(t) for t in tracks)
        header = (
            f"{'track'.ljust(width)}  {'busy us':>12}  {'stall us':>12}  "
            f"{'util':>6}"
        )
        lines.append(header)
        for track in tracks:
            b = busy.get(track, 0)
            s = stall.get(track, 0)
            wall = walls[track]
            util = b / wall if wall else 0.0
            lines.append(
                f"{track.ljust(width)}  {b / _PS_PER_US:>12.3f}  "
                f"{s / _PS_PER_US:>12.3f}  {util:>6.1%}"
            )
        lines.append(
            f"wall: {total / _PS_PER_US:.3f} us over {len(tracks)} tracks "
            f"in {len(timelines)} timelines"
        )
        return "\n".join(lines)

    # -- Chrome trace_event export ----------------------------------------

    def to_chrome(self) -> dict[str, Any]:
        """The trace as a Chrome ``trace_event`` JSON object.

        Slices become ``"X"`` events, instants ``"i"``; ``ts``/``dur``
        are microseconds (the format's unit).  Each timeline is a
        ``pid`` (so timelines that restart at t = 0 do not overlap), and
        its tracks map to ``tid`` with ``thread_name`` metadata so
        Perfetto shows component names.
        """
        out: list[dict[str, Any]] = []
        for pid, events in enumerate(self.timelines(), start=1):
            out.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": f"repro-sim timeline {pid}"},
                }
            )
            tids: dict[str, int] = {}
            for ev in events:
                tid = tids.get(ev.track)
                if tid is None:
                    tid = len(tids) + 1
                    tids[ev.track] = tid
                    out.append(
                        {
                            "name": "thread_name",
                            "ph": "M",
                            "pid": pid,
                            "tid": tid,
                            "args": {"name": ev.track},
                        }
                    )
                record: dict[str, Any] = {
                    "name": ev.name,
                    "cat": ev.cat,
                    "ph": ev.ph,
                    "ts": ev.ts_ps / _PS_PER_US,
                    "pid": pid,
                    "tid": tid,
                }
                if ev.ph == "X":
                    record["dur"] = ev.dur_ps / _PS_PER_US
                if ev.ph == "i":
                    record["s"] = "t"  # thread-scoped instant
                if ev.args:
                    record["args"] = ev.args
                out.append(record)
        return {"traceEvents": out, "displayTimeUnit": "ns"}

    def export_chrome(self, dest: str | IO[str]) -> None:
        """Write the Chrome trace JSON to a path or open file object."""
        payload = self.to_chrome()
        if hasattr(dest, "write"):
            json.dump(payload, dest)
        else:
            path = Path(dest)
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("w", encoding="utf-8") as fp:
                json.dump(payload, fp)
