"""Fault injection and recovery: deterministic chaos for the simulator.

The paper's use cases assume disaggregated components on a 100 Gbps
network; this package supplies the unhappy path the happy-path models
omit.  A seeded :class:`FaultPlan` decides — deterministically, per
injection site — which transfers drop, which suffer latency spikes,
and which nodes crash; :class:`FaultyLink` applies those decisions to
network links; :func:`call_with_retries` and :class:`RetryPolicy` give
clients exponential-backoff recovery under per-attempt timeouts.
Experiment ``e22`` measures the cost.
"""

from .injection import FaultyLink
from .plan import FaultPlan, NodeOutage
from .retry import CallOutcome, RetryPolicy, call_with_retries

__all__ = [
    "CallOutcome",
    "FaultPlan",
    "FaultyLink",
    "NodeOutage",
    "RetryPolicy",
    "call_with_retries",
]
