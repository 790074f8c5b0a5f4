"""Per-component busy/stall profiling over a traced run.

:class:`Profiler` is the third piece of :mod:`repro.obs`: it owns a
:class:`~repro.obs.trace.Tracer` and folds the slices recorded on it
into a :class:`ProfileReport` — for every kernel, stream, link, memory
port and bank track, how long it was busy, how long it was stalled,
and what fraction of the traced span it was occupied.

Hand ``prof.tracer`` to whatever should record: a
:class:`~repro.core.sim.Simulator` (``Simulator(tracer=prof.tracer)``),
or an analytic component that never touches a simulator (e.g.
:class:`~repro.memory.banked.BankedMemory`).  E19 profiles its most
contended point this way::

    prof = Profiler()
    simulate_clients(server, plan, "t", 16, mode="offload",
                     tracer=prof.tracer)
    prof.report().component("memory:dram-agg").busy_fraction
"""

from __future__ import annotations

from dataclasses import dataclass

from .trace import Tracer

__all__ = ["ComponentProfile", "ProfileReport", "Profiler"]


@dataclass(frozen=True, slots=True)
class ComponentProfile:
    """Busy/stall accounting for one track (component)."""

    track: str
    busy_ps: int
    stall_ps: int
    wall_ps: int

    @property
    def busy_fraction(self) -> float:
        return self.busy_ps / self.wall_ps if self.wall_ps else 0.0


@dataclass(frozen=True)
class ProfileReport:
    """Busy/stall breakdown for every component seen in a traced run."""

    components: tuple[ComponentProfile, ...]
    wall_ps: int

    def component(self, track: str) -> ComponentProfile:
        for comp in self.components:
            if comp.track == track:
                return comp
        raise KeyError(f"no component {track!r} in profile")


class Profiler:
    """A tracer plus the busy/stall breakdown of what it recorded.

    The wall is the traced span: the end of the last recorded slice.
    """

    def __init__(self) -> None:
        self.tracer = Tracer()

    def report(self) -> ProfileReport:
        """The busy/stall breakdown of everything traced so far."""
        wall_ps = self.tracer.span_ps()
        busy = self.tracer.busy_by_track()
        stall = self.tracer.stall_by_track()
        components = tuple(
            ComponentProfile(
                track=track,
                busy_ps=busy.get(track, 0),
                stall_ps=stall.get(track, 0),
                wall_ps=wall_ps,
            )
            for track in sorted(set(busy) | set(stall))
        )
        return ProfileReport(components=components, wall_ps=wall_ps)
