"""Observability for the simulator: metrics, tracing, profiling.

Three cooperating pieces (see DESIGN.md §6 "Observability"):

* :mod:`repro.obs.metrics` — a registry of named counters and gauges
  with hierarchical labels, filled by the tracer.
* :mod:`repro.obs.trace` — the event tracer the instrumented classes
  (:class:`~repro.core.sim.Simulator`, streams, kernels, links, memory
  ports/banks) emit through, with Chrome ``trace_event`` JSON export
  and plain-text utilisation summaries.
* :mod:`repro.obs.profile` — a profiler that owns a tracer and reports
  time busy vs time stalled per component.

The contract every instrumented hot path honours: with no tracer
attached (the default) the pre-observability code path runs unchanged;
with one attached, recording never alters simulated behaviour
(trace transparency).
"""

from .metrics import Counter, Gauge, MetricsRegistry
from .profile import ComponentProfile, ProfileReport, Profiler
from .trace import TraceEvent, Tracer, get_default_tracer, set_default_tracer

__all__ = [
    "ComponentProfile",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "ProfileReport",
    "Profiler",
    "TraceEvent",
    "Tracer",
    "get_default_tracer",
    "set_default_tracer",
]
