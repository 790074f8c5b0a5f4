"""Fault injection and recovery: deterministic chaos for the simulator.

The paper's use cases assume disaggregated components on a 100 Gbps
network; this package supplies the unhappy path the happy-path models
omit.  A seeded :class:`FaultPlan` decides — deterministically, per
injection site — which transfers drop, which suffer latency spikes,
and which nodes crash; :class:`FaultyLink` applies those decisions to
network links; :func:`call_with_retries` and :class:`RetryPolicy` give
clients exponential-backoff recovery under per-request deadlines.
Experiment ``e22`` measures the cost.
"""

from .injection import FaultyLink, TransferDropped
from .plan import FaultPlan, NodeOutage
from .retry import (
    CallOutcome,
    DeadlineExceeded,
    RetryPolicy,
    analytic_retries,
    call_with_retries,
)

__all__ = [
    "CallOutcome",
    "DeadlineExceeded",
    "FaultPlan",
    "FaultyLink",
    "NodeOutage",
    "RetryPolicy",
    "TransferDropped",
    "analytic_retries",
    "call_with_retries",
]
