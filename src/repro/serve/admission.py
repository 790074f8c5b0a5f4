"""SLO-aware admission control, load shedding, replica autoscaling.

An open-loop service that admits everything converts overload into an
unbounded queue and an unbounded p99.  The controller sheds instead,
on two criteria evaluated at arrival time (both O(1), both
deterministic):

* **queue depth** — a hard cap on batcher occupancy; priority tenants
  get ``priority_headroom`` times the cap before they too are shed;
* **deadline feasibility** — a first-order wait estimate (batches
  ahead of this request, at full-batch service time, spread over the
  live replicas); if the estimated completion already misses the
  request's SLO deadline, admitting it would only waste a slot.
  Priority tenants skip this check — they are shed on queue depth
  only.

:class:`ReplicaAutoscaler` is the scaling hook: a monitor that samples
queue pressure every ``interval_ps`` and asks the service to add or
retire a replica, recording every decision (time, depth, replica
count) so tests and traces can audit the policy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .backend import Backend
from .batcher import DynamicBatcher
from .traffic import Request

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "AutoscalerPolicy",
    "ReplicaAutoscaler",
]


@dataclass(frozen=True)
class AdmissionPolicy:
    """Shedding thresholds for one backend's queue."""

    max_queue: int
    priority_headroom: float = 2.0
    deadline_aware: bool = True

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.priority_headroom < 1.0:
            raise ValueError("priority_headroom must be >= 1.0")


class AdmissionController:
    """Admit-or-shed decisions at request arrival time."""

    def __init__(
        self,
        policy: AdmissionPolicy,
        backend: Backend,
        batcher: DynamicBatcher,
    ) -> None:
        self.policy = policy
        self.backend = backend
        self.batcher = batcher
        self.admitted = 0
        self.shed: dict[str, int] = {}
        # A backend's batch cost is a pure function of the batch size,
        # so the full-batch price is read once.
        self._full_batch_ps = backend.batch_service_ps(backend.max_batch)

    def _estimated_done_ps(self, now: int, depth: int, replicas: int) -> int:
        """First-order completion estimate for a request joining now."""
        batch_ps = self._full_batch_ps
        batches_ahead = depth // self.backend.max_batch
        queue_ps = batches_ahead * batch_ps // max(1, replicas)
        return now + queue_ps + batch_ps

    def admit(self, req: Request, replicas: int) -> tuple[bool, str | None]:
        """Decide for ``req``; returns ``(admitted, shed_reason)``."""
        depth = self.batcher.depth
        cap = self.policy.max_queue
        if req.priority:
            cap = int(cap * self.policy.priority_headroom)
        if depth >= cap:
            self._count("queue")
            return False, "queue"
        if self.policy.deadline_aware and not req.priority:
            now = self.batcher.sim.now
            if self._estimated_done_ps(now, depth, replicas) > req.deadline_ps:
                self._count("deadline")
                return False, "deadline"
        self.admitted += 1
        return True, None

    def _count(self, reason: str) -> None:
        self.shed[reason] = self.shed.get(reason, 0) + 1

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())


@dataclass(frozen=True)
class AutoscalerPolicy:
    """Queue-pressure autoscaling bounds and cadence."""

    min_replicas: int
    max_replicas: int
    interval_ps: int
    scale_up_depth: float = 8.0    # queued items per replica
    scale_down_depth: float = 1.0

    def __post_init__(self) -> None:
        if self.min_replicas < 1:
            raise ValueError("min_replicas must be >= 1")
        if self.max_replicas < self.min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")
        if self.interval_ps < 1:
            raise ValueError("interval_ps must be >= 1")
        if self.scale_down_depth >= self.scale_up_depth:
            raise ValueError("scale_down_depth must be < scale_up_depth")


class ReplicaAutoscaler:
    """Samples queue pressure and steers the service's replica target.

    The autoscaler never touches replicas itself; it calls the
    service's ``set_replicas`` hook, which spawns or retires replica
    processes at safe points.  ``decisions`` records
    ``(t_ps, queued, replicas)`` after every sample for audit.
    """

    def __init__(self, policy: AutoscalerPolicy, service) -> None:
        self.policy = policy
        self.service = service
        self.decisions: list[tuple[int, int, int]] = []

    def run(self):
        """The monitor process (spawned by the service)."""
        sim = self.service.sim
        policy = self.policy
        while not self.service.finished:
            yield sim.timeout(policy.interval_ps)
            queued = self.service.queued
            replicas = self.service.replica_target
            per_replica = queued / max(1, replicas)
            if (per_replica > policy.scale_up_depth
                    and replicas < policy.max_replicas):
                self.service.set_replicas(replicas + 1)
            elif (per_replica < policy.scale_down_depth
                    and replicas > policy.min_replicas):
                self.service.set_replicas(replicas - 1)
            self.decisions.append(
                (sim.now, queued, self.service.replica_target)
            )
