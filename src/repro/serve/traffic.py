"""Load generator: open-loop arrivals.

Open-loop traffic is the serving-systems default: requests arrive on
their own schedule whether or not the service keeps up, which is what
exposes a saturation knee (a closed-loop client would politely wait,
hiding overload).  Arrivals are **pre-drawn** from a seeded generator,
so a traffic config + seed pins the byte-exact schedule — the property
the e24 determinism tests rely on.

Two arrival shapes:

* **Poisson** — i.i.d. exponential gaps at the offered rate;
* **bursty** — the same mean rate modulated by an on/off phase (an
  MMPP-flavoured model): blocks of ``burst_len`` requests alternate
  between a hot phase (gaps shrunk by ``burst_factor``) and a cold
  phase (gaps stretched to preserve the overall mean).

Tenants are drawn Zipf(``tenant_skew``) — a few hot tenants dominate,
mirroring the multi-tenant smart-NIC setting — and tenants listed in
``priority_tenants`` carry a priority flag the admission controller
honours under shedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..workloads import ZipfSampler

__all__ = ["OpenLoopConfig", "Request", "generate_requests"]

_PS_PER_S = 1_000_000_000_000


class Request(NamedTuple):
    """One inbound query: identity, tenant, timing budget."""

    rid: int
    tenant: int
    arrival_ps: int
    deadline_ps: int          # absolute simulated time; the SLO edge
    priority: bool = False


@dataclass(frozen=True)
class OpenLoopConfig:
    """An open-loop arrival schedule.

    Parameters
    ----------
    offered_qps:
        Mean arrival rate (requests per simulated second).
    n_requests:
        Total requests in the schedule.
    slo_ps:
        Relative latency budget; a request arriving at ``t`` must
        complete by ``t + slo_ps`` to count toward goodput.
    n_tenants / tenant_skew:
        Zipf-skewed tenant population.
    burst_factor:
        1.0 = pure Poisson; >1 alternates hot/cold phases of
        ``burst_len`` requests while preserving the mean rate.
    priority_tenants:
        Tenant ids whose requests carry the priority flag.
    """

    offered_qps: float
    n_requests: int
    slo_ps: int
    burst_factor: float
    n_tenants: int = 8
    tenant_skew: float = 1.1
    burst_len: int = 32
    priority_tenants: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        if self.offered_qps <= 0:
            raise ValueError(f"offered_qps must be > 0, got {self.offered_qps}")
        if self.n_requests < 1:
            raise ValueError("n_requests must be >= 1")
        if self.slo_ps < 1:
            raise ValueError("slo_ps must be >= 1")
        if self.n_tenants < 1:
            raise ValueError("n_tenants must be >= 1")
        if self.burst_factor < 1.0:
            raise ValueError("burst_factor must be >= 1.0")
        if self.burst_len < 1:
            raise ValueError("burst_len must be >= 1")


def _gaps_ps(cfg: OpenLoopConfig, rng: np.random.Generator) -> np.ndarray:
    """Inter-arrival gaps (float ps) honouring the burst phase plan."""
    mean_gap = _PS_PER_S / cfg.offered_qps
    gaps = rng.exponential(mean_gap, size=cfg.n_requests)
    if cfg.burst_factor > 1.0:
        # Hot blocks compress gaps by burst_factor; cold blocks stretch
        # them so hot+cold average back to mean_gap.
        hot = (np.arange(cfg.n_requests) // cfg.burst_len) % 2 == 0
        cold_scale = 2.0 - 1.0 / cfg.burst_factor
        gaps = np.where(hot, gaps / cfg.burst_factor, gaps * cold_scale)
    return gaps


def generate_requests(cfg: OpenLoopConfig, seed: int) -> list[Request]:
    """Pre-draw the full open-loop schedule for ``(cfg, seed)``."""
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(_gaps_ps(cfg, rng)).astype(np.int64)
    tenants = ZipfSampler(cfg.n_tenants, cfg.tenant_skew, rng).sample(
        cfg.n_requests
    )
    prio = frozenset(cfg.priority_tenants)
    slo_ps = cfg.slo_ps
    # Python ints from whole columns: one conversion per column instead
    # of a numpy scalar per field.
    return [
        Request(rid, tenant, arrival, arrival + slo_ps, tenant in prio)
        for rid, (tenant, arrival) in enumerate(
            zip(tenants.tolist(), arrivals.tolist())
        )
    ]
