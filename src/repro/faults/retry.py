"""Retry with exponential backoff + jitter, under per-attempt timeouts.

:func:`call_with_retries` is the event-driven recovery loop the fault
experiments share: spawn an attempt process, bound it with
:func:`~repro.core.sim.with_timeout`, and on failure (a modelled
:class:`~repro.core.sim.SimulationError`, or a timeout — how a silently
dropped transfer shows) back off and try again, until the policy's
attempt budget runs out.  It is written as a
generator so client processes use it transparently::

    outcome = yield from call_with_retries(sim, make_attempt, policy, rng)

Backoff draws come from a caller-supplied ``random.Random`` (usually a
:meth:`FaultPlan.stream <repro.faults.plan.FaultPlan.stream>` site
stream), keeping retry schedules as deterministic as the faults that
trigger them.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Generator
from dataclasses import dataclass
from typing import Any

from ..core.sim import SimulationError, Simulator, WaitTimeout, with_timeout

__all__ = ["CallOutcome", "RetryPolicy", "call_with_retries"]


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How a client retries a failed request.

    Parameters
    ----------
    max_attempts:
        Total tries including the first (1 = no retries).
    timeout_ps:
        Per-attempt budget.
    backoff_base_ps:
        Sleep before the second attempt.
    backoff_multiplier:
        Growth factor per further retry.
    jitter:
        Fractional uniform jitter (0.2 = ±20%) applied to each backoff.
    """

    max_attempts: int
    timeout_ps: int
    backoff_base_ps: int
    backoff_multiplier: float
    jitter: float

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout_ps <= 0:
            raise ValueError("timeout_ps must be positive")
        if self.backoff_base_ps < 0:
            raise ValueError("backoff_base_ps must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def backoff_ps(self, attempt: int, rng: random.Random) -> int:
        """Backoff before attempt ``attempt + 1`` (attempts count from 1)."""
        if attempt < 1:
            raise ValueError("attempt numbers start at 1")
        delay = self.backoff_base_ps * self.backoff_multiplier ** (attempt - 1)
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0, int(delay))


@dataclass(frozen=True, slots=True)
class CallOutcome:
    """What one retried call cost (``ok=False``: attempts exhausted)."""

    ok: bool
    value: Any
    attempts: int
    retries: int
    latency_ps: int


def call_with_retries(
    sim: Simulator,
    make_attempt: Callable[[], Generator],
    policy: RetryPolicy,
    rng: random.Random,
    site: str = "call",
) -> Generator[Any, Any, CallOutcome]:
    """Run ``make_attempt`` until it succeeds or the attempts run out.

    Each attempt is spawned as a fresh process and bounded by the
    policy's per-attempt timeout.  A timed-out attempt is interrupted
    and defused so it cannot leak an unjoined failure; an attempt that
    fails with a :class:`~repro.core.sim.SimulationError` triggers
    backoff + retry, anything else propagates.
    """
    tracer = sim._tracer
    start = sim.now
    for attempt in range(1, policy.max_attempts + 1):
        if attempt > 1:
            backoff = policy.backoff_ps(attempt - 1, rng)
            if tracer is not None:
                tracer.retry_attempted(site, attempt - 1)
            if backoff:
                yield sim.timeout(backoff)
        proc = sim.spawn(make_attempt(), name=f"{site}.attempt{attempt}")
        try:
            value = yield with_timeout(sim, proc, policy.timeout_ps)
        except WaitTimeout:
            if proc.is_alive:
                proc.interrupt("attempt timed out")
            proc.defuse()
        except SimulationError:
            proc.defuse()
        else:
            return CallOutcome(
                ok=True,
                value=value,
                attempts=attempt,
                retries=attempt - 1,
                latency_ps=sim.now - start,
            )
    if tracer is not None:
        tracer.deadline_missed(site)
    return CallOutcome(
        ok=False,
        value=None,
        attempts=policy.max_attempts,
        retries=policy.max_attempts - 1,
        latency_ps=sim.now - start,
    )
