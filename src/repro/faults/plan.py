"""Deterministic fault schedules.

A :class:`FaultPlan` is the single source of randomness for a
fault-injection run.  It is seeded, and every injection *site* (a link
name, a client) draws from its own ``random.Random`` stream derived
from ``(seed, site)`` — so whether site A consults the plan before or
after site B cannot perturb either schedule.  Two plans
built with the same configuration produce byte-identical fault
sequences, which is what the deterministic-replay tests (and the
``e22`` acceptance criterion) rely on.

Fault kinds:

* **drops** — a transfer vanishes (probability ``drop_rate`` per
  consult);
* **latency spikes** — a transfer is delayed by a uniform draw from
  ``spike_ps`` (probability ``spike_rate``);
* **node outages** — a statically scheduled :class:`NodeOutage`
  interval during which a node neither sends nor receives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

__all__ = ["FaultPlan", "NodeOutage"]


@dataclass(frozen=True, slots=True)
class NodeOutage:
    """A node crash interval: down at ``down_at_ps``, back at ``up_at_ps``.

    ``up_at_ps=None`` means the node never recovers (fail-stop).
    """

    node: int
    down_at_ps: int
    up_at_ps: int | None = None

    def __post_init__(self) -> None:
        if self.down_at_ps < 0:
            raise ValueError("down_at_ps must be >= 0")
        if self.up_at_ps is not None and self.up_at_ps <= self.down_at_ps:
            raise ValueError("up_at_ps must be after down_at_ps")

    def covers(self, t_ps: int) -> bool:
        """True if the node is down at time ``t_ps``."""
        if t_ps < self.down_at_ps:
            return False
        return self.up_at_ps is None or t_ps < self.up_at_ps


@dataclass
class FaultPlan:
    """A seeded, per-site-deterministic schedule of injected faults.

    Parameters
    ----------
    seed:
        Root seed; combined with each site name to derive independent
        streams.
    drop_rate:
        Probability that a consulted transfer is dropped.
    spike_rate:
        Probability that a consulted transfer suffers a latency spike.
    spike_ps:
        ``(lo, hi)`` uniform range for spike magnitudes.
    outages:
        Statically scheduled :class:`NodeOutage` intervals.
    """

    seed: int
    drop_rate: float = 0.0
    spike_rate: float = 0.0
    spike_ps: tuple[int, int] = (1_000_000, 10_000_000)
    outages: tuple[NodeOutage, ...] = ()
    injected: dict[str, int] = field(default_factory=dict, compare=False)
    _streams: dict[str, random.Random] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError("drop_rate must be in [0, 1]")
        if not 0.0 <= self.spike_rate <= 1.0:
            raise ValueError("spike_rate must be in [0, 1]")
        lo, hi = self.spike_ps
        if lo < 0 or hi < lo:
            raise ValueError("spike_ps must be a (lo, hi) range with 0 <= lo <= hi")
        self.outages = tuple(self.outages)

    # -- per-site randomness ------------------------------------------------

    def stream(self, site: str) -> random.Random:
        """The site's private random stream (created on first use).

        Seeding with a string goes through ``random``'s sha512 path, so
        the stream depends only on ``(seed, site)`` — never on how many
        draws other sites made first.
        """
        rng = self._streams.get(site)
        if rng is None:
            rng = random.Random(f"faultplan:{self.seed}:{site}")
            self._streams[site] = rng
        return rng

    def _count(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1

    # -- fault draws --------------------------------------------------------

    def drop(self, site: str) -> bool:
        """Consult the plan: is this transfer at ``site`` dropped?"""
        if self.drop_rate <= 0.0:
            return False
        hit = self.stream(site).random() < self.drop_rate
        if hit:
            self._count("drop")
        return hit

    def spike_delay_ps(self, site: str) -> int:
        """Extra latency injected on this transfer (0 = no spike).

        Two draws per consult — probability, then magnitude — so the
        schedule is stable even if ``spike_ps`` changes between runs.
        """
        if self.spike_rate <= 0.0:
            return 0
        rng = self.stream(site)
        hit = rng.random() < self.spike_rate
        lo, hi = self.spike_ps
        magnitude = rng.randint(lo, hi) if hi > lo else lo
        if not hit:
            return 0
        self._count("latency_spike")
        return magnitude

    # -- outages ------------------------------------------------------------

    def node_down(self, node: int, t_ps: int) -> bool:
        """True if ``node`` is inside one of its outage windows."""
        return any(
            o.node == node and o.covers(t_ps) for o in self.outages
        )
