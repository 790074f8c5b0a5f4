"""The event-driven serving loop: traffic -> admission -> batcher ->
replicated backend instances.

:func:`simulate_service` runs one serving session in the discrete-event
engine and returns a :class:`ServiceReport`:

* an **arrival process** replays a pre-drawn open-loop schedule;
* each arrival passes the :class:`~repro.serve.admission
  .AdmissionController` — shed requests are accounted, not queued;
* the :class:`~repro.serve.batcher.DynamicBatcher` forms batches into a
  bounded dispatch stream;
* ``replicas`` replica processes take batches in the order they became
  idle and hold each for the backend's ``batch_service_ps``; an optional
  :class:`~repro.serve.admission.ReplicaAutoscaler` moves the replica
  count at runtime;
* an optional :class:`~repro.faults.FaultPlan` degrades service:
  latency spikes stretch a batch, drops fail it outright (its requests
  count as failures, not goodput) — sites are per-replica, so the
  schedule is deterministic under any interleaving.

Everything is seeded; two runs of the same
``(backend, traffic, config, seed, plan)`` produce byte-identical
reports.  Latency percentiles are computed exactly from the per-request
latency list.

Idle replicas block on the dispatch stream and never poll, so host cost
scales with requests and batches, not with simulated idle time.  An
arrival costs an event only when something else is due first: the
arrival process moves the clock itself (``Simulator.skip_to``) when
its next arrival would be the next event anyway, and yields a timeout
only when another live event is due at or before it.  Each such
timeout therefore stands for a distinct non-arrival event, and the
budget is a constant number of events per batch: the batcher wakes on
the first item, when the batch is full, at the head's deadline or on
close, and a replica accounts a finished batch in one pass.  The run
ends when the event heap drains, idle replicas still blocked; the
report asserts that every request was accounted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.sim import Interrupt, Simulator
from ..core.stream import Stream
from .admission import (
    AdmissionController,
    AdmissionPolicy,
    AutoscalerPolicy,
    ReplicaAutoscaler,
)
from .backend import Backend
from .batcher import Batch, BatchPolicy, DynamicBatcher
from .traffic import OpenLoopConfig, Request, generate_requests

__all__ = ["ServiceConfig", "ServiceReport", "simulate_service"]

_PS_PER_S = 1_000_000_000_000


@dataclass(frozen=True)
class ServiceConfig:
    """One backend's serving configuration."""

    batch: BatchPolicy
    admission: AdmissionPolicy
    replicas: int
    autoscaler: AutoscalerPolicy | None = None

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {self.replicas}")


@dataclass(frozen=True)
class ServiceReport:
    """Aggregate outcome of one serving session."""

    backend: str
    offered: int
    admitted: int
    shed: int
    shed_by_reason: dict[str, int]
    completed: int
    failed: int
    in_slo: int
    batches: int
    mean_batch: float
    p50_us: float
    p95_us: float
    p99_us: float
    makespan_s: float
    achieved_qps: float
    goodput_qps: float
    replicas_final: int
    autoscale_decisions: tuple[tuple[int, int, int], ...] = ()

    def row(self) -> dict[str, Any]:
        """The report as a plain JSON-able dict (one sweep cell)."""
        return {
            "backend": self.backend,
            "offered": self.offered,
            "admitted": self.admitted,
            "shed": self.shed,
            "shed_by_reason": dict(self.shed_by_reason),
            "completed": self.completed,
            "failed": self.failed,
            "in_slo": self.in_slo,
            "batches": self.batches,
            "mean_batch": self.mean_batch,
            "p50_us": self.p50_us,
            "p95_us": self.p95_us,
            "p99_us": self.p99_us,
            "makespan_s": self.makespan_s,
            "achieved_qps": self.achieved_qps,
            "goodput_qps": self.goodput_qps,
            "replicas_final": self.replicas_final,
        }


class _OnlineService:
    """Internal wiring for one serving session (see module docstring)."""

    def __init__(
        self,
        sim: Simulator,
        backend: Backend,
        config: ServiceConfig,
        expected: int,
        plan=None,
    ) -> None:
        self.sim = sim
        self.backend = backend
        self.config = config
        self.plan = plan
        # Formed batches wait here for an idle replica; the stream's
        # default depth of 2 buffers them before the batcher blocks.
        self.dispatch = Stream(sim, name=f"serve.{backend.name}.dispatch")
        self.batcher = DynamicBatcher(
            sim, config.batch, self.dispatch,
            name=f"serve.{backend.name}.batcher",
        )
        self.admission = AdmissionController(
            config.admission, backend, self.batcher
        )
        self._expected = expected
        self._accounted = 0
        self._latencies: list[int] = []
        self._in_slo = 0
        self._failed = 0
        self._last_done_ps = 0
        self.replica_target = 0
        self._live = 0
        self._next_rid = 0
        self._procs: dict[int, Any] = {}
        # (rid, pending get) per blocked replica, oldest idle first.
        self._idle: list[tuple[int, Any]] = []
        self.autoscaler: ReplicaAutoscaler | None = None
        self.set_replicas(config.replicas)
        if config.autoscaler is not None:
            self.autoscaler = ReplicaAutoscaler(config.autoscaler, self)
            sim.spawn(self.autoscaler.run(),
                      name=f"serve.{backend.name}.autoscaler")

    # -- state the admission controller / autoscaler read ------------------

    @property
    def queued(self) -> int:
        """Queue pressure: batcher occupancy plus undelivered batches."""
        return (
            self.batcher.depth
            + len(self.dispatch) * self.config.batch.max_batch
        )

    @property
    def finished(self) -> bool:
        return self._accounted >= self._expected

    # -- replica management -------------------------------------------------

    def set_replicas(self, target: int) -> None:
        """Steer the live replica count (autoscaler hook)."""
        if target < 1:
            raise ValueError("replica target must be >= 1")
        self.replica_target = target
        # Retire surplus idle replicas now, most recently idle first, so
        # the next batch still goes to the longest-idle one.  A replica
        # already handed a batch is busy: it retires after that batch.
        for rid, get in self._idle[::-1]:
            if self._live > target and not get.triggered:
                self._idle.remove((rid, get))
                self._live -= 1
                self._procs[rid].interrupt()
        while self._live < target:
            rid = self._next_rid
            self._next_rid += 1
            self._live += 1
            self._procs[rid] = self.sim.spawn(
                self._replica(rid),
                name=f"serve.{self.backend.name}.r{rid}",
            )

    def _replica(self, rid: int):
        sim = self.sim
        backend = self.backend
        site = f"serve.{backend.name}.r{rid}"
        while True:
            if self._live > self.replica_target and self.dispatch.empty:
                self._live -= 1
                return
            idle = (rid, self.dispatch.get())
            self._idle.append(idle)
            try:
                batch = yield idle[1]
            except Interrupt:
                return
            self._idle.remove(idle)
            service_ps = backend.batch_service_ps(len(batch))
            dropped = False
            if self.plan is not None:
                service_ps += self.plan.spike_delay_ps(site)
                dropped = self.plan.drop(site)
            yield sim.timeout(int(service_ps))
            if dropped:
                self._fail(batch)
            else:
                self._complete(batch)

    # -- request accounting --------------------------------------------------

    def offer(self, req: Request) -> None:
        """Run admission for ``req``; queue it or account the shed."""
        admitted, _reason = self.admission.admit(req, self.replica_target)
        if admitted:
            self.batcher.submit(req)
        else:
            self._accounted += 1

    def _complete(self, batch: Batch) -> None:
        """Account every request of a batch that finished now."""
        now = self.sim.now
        latencies = self._latencies
        in_slo = 0
        for req in batch.items:
            latencies.append(now - req.arrival_ps)
            if now <= req.deadline_ps:
                in_slo += 1
        self._in_slo += in_slo
        self._last_done_ps = max(self._last_done_ps, now)
        self._accounted += len(batch)

    def _fail(self, batch: Batch) -> None:
        """Account every request of a batch that was dropped now."""
        self._failed += len(batch)
        self._last_done_ps = max(self._last_done_ps, self.sim.now)
        self._accounted += len(batch)

    # -- report --------------------------------------------------------------

    def report(self, offered: int) -> ServiceReport:
        assert self._accounted == offered, (
            f"accounting leak: {self._accounted} accounted, "
            f"{offered} offered"
        )
        lat_us = np.array(self._latencies, dtype=np.float64) / 1e6
        if lat_us.size:
            p50, p95, p99 = (
                float(np.percentile(lat_us, q)) for q in (50, 95, 99)
            )
        else:
            p50 = p95 = p99 = 0.0
        makespan_s = self._last_done_ps / _PS_PER_S
        completed = len(self._latencies)
        batches = self.batcher.batches
        return ServiceReport(
            backend=self.backend.name,
            offered=offered,
            admitted=self.admission.admitted,
            shed=self.admission.shed_total,
            shed_by_reason=dict(self.admission.shed),
            completed=completed,
            failed=self._failed,
            in_slo=self._in_slo,
            batches=batches,
            mean_batch=(
                self.batcher.items_in / batches if batches else 0.0
            ),
            p50_us=p50,
            p95_us=p95,
            p99_us=p99,
            makespan_s=makespan_s,
            achieved_qps=completed / makespan_s if makespan_s else 0.0,
            goodput_qps=self._in_slo / makespan_s if makespan_s else 0.0,
            replicas_final=self.replica_target,
            autoscale_decisions=tuple(
                self.autoscaler.decisions
            ) if self.autoscaler else (),
        )


def _open_loop_arrivals(service: _OnlineService, requests: list[Request]):
    sim = service.sim
    for req in requests:
        # An arrival that nothing else precedes moves the clock without
        # an event; otherwise its timeout orders it among the others.
        arrival = req.arrival_ps
        if arrival > sim.now and not sim.skip_to(arrival):
            yield sim.timeout(arrival - sim.now)
        service.offer(req)
    service.batcher.close()


def simulate_service(
    backend: Backend,
    traffic: OpenLoopConfig,
    config: ServiceConfig,
    seed: int,
    plan=None,
    tracer=None,
) -> ServiceReport:
    """Run one serving session; see the module docstring for the wiring."""
    sim = Simulator(tracer=tracer)
    service = _OnlineService(
        sim, backend, config,
        expected=traffic.n_requests,
        plan=plan,
    )
    sim.spawn(
        _open_loop_arrivals(service, generate_requests(traffic, seed)),
        name=f"serve.{backend.name}.arrivals",
    )
    sim.run()
    return service.report(traffic.n_requests)
