"""Per-component busy/stall profiling over a traced run.

:class:`Profiler` is the third piece of :mod:`repro.obs`: a context
manager that attaches a :class:`~repro.obs.trace.Tracer` for the
duration of a simulated (or analytic) region and, on exit, folds the
recorded slices into a :class:`ProfileReport` — for every kernel,
stream, link, memory port and bank track, how long it was busy, how
long it was stalled, and what fraction of the wall it was occupied.

Usage::

    sim = Simulator()
    with Profiler(sim) as prof:
        build_pipeline(sim)
        sim.run()
    print(prof.report().render())

Analytic components that never touch a simulator (e.g.
:class:`~repro.memory.banked.BankedMemory`) profile the same way — hand
them ``prof.tracer`` and the bank-busy records show up as components.
"""

from __future__ import annotations

from dataclasses import dataclass

from .trace import Tracer

__all__ = ["ComponentProfile", "ProfileReport", "Profiler"]

_PS_PER_US = 1_000_000


@dataclass(frozen=True, slots=True)
class ComponentProfile:
    """Busy/stall accounting for one track (component)."""

    track: str
    busy_ps: int
    stall_ps: int
    wall_ps: int

    @property
    def name(self) -> str:
        return self.track.split(":", 1)[-1]

    @property
    def busy_fraction(self) -> float:
        return self.busy_ps / self.wall_ps if self.wall_ps else 0.0

    @property
    def stall_fraction(self) -> float:
        return self.stall_ps / self.wall_ps if self.wall_ps else 0.0


@dataclass(frozen=True)
class ProfileReport:
    """Busy/stall breakdown for every component seen in a traced run."""

    components: tuple[ComponentProfile, ...]
    wall_ps: int

    def component(self, track: str) -> ComponentProfile:
        for comp in self.components:
            if comp.track == track or comp.name == track:
                return comp
        raise KeyError(f"no component {track!r} in profile")

    def render(self) -> str:
        """Monospace busy/stall table, busiest components first."""
        lines = [
            "busy/stall profile "
            f"(wall {self.wall_ps / _PS_PER_US:.3f} us)",
        ]
        lines.append("-" * len(lines[0]))
        if not self.components:
            lines.append("(no instrumented components ran)")
            return "\n".join(lines)
        width = max(len(c.track) for c in self.components)
        lines.append(
            f"{'component'.ljust(width)}  {'busy us':>12}  {'stall us':>12}  "
            f"{'busy%':>6}  {'stall%':>6}"
        )
        ordered = sorted(
            self.components, key=lambda c: (-c.busy_ps, c.track)
        )
        for comp in ordered:
            lines.append(
                f"{comp.track.ljust(width)}  "
                f"{comp.busy_ps / _PS_PER_US:>12.3f}  "
                f"{comp.stall_ps / _PS_PER_US:>12.3f}  "
                f"{comp.busy_fraction:>6.1%}  {comp.stall_fraction:>6.1%}"
            )
        return "\n".join(lines)


class Profiler:
    """Attach a tracer for a region and derive busy/stall on exit.

    Parameters
    ----------
    sim:
        Optional simulator to attach to; when given, its clock drives
        the tracer's timestamps and its final ``now`` is the wall time.
        When omitted (purely analytic profiling) the wall defaults to
        the last recorded slice end.
    tracer:
        Bring-your-own tracer; a fresh one is created when omitted.
    """

    def __init__(self, sim=None, tracer: Tracer | None = None) -> None:
        self.sim = sim
        self.tracer = tracer if tracer is not None else Tracer()
        self._report: ProfileReport | None = None
        if sim is not None:
            sim.attach_tracer(self.tracer)

    def __enter__(self) -> "Profiler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self._report = self._build_report()

    def report(self, wall_ps: int | None = None) -> ProfileReport:
        """The busy/stall breakdown (recomputed if ``wall_ps`` given)."""
        if wall_ps is not None or self._report is None:
            self._report = self._build_report(wall_ps)
        return self._report

    def _build_report(self, wall_ps: int | None = None) -> ProfileReport:
        if wall_ps is None:
            if self.sim is not None:
                wall_ps = max(self.sim.now, self.tracer.span_ps())
            else:
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
