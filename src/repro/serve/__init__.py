"""Online serving layer (``repro.serve``).

The paper's use cases — FANNS vector search (SC'23), MicroRec
recommendation inference (MLSys'21), Farview memory offload — are all
*online services* in their original deployments, yet the experiment
suite runs them as offline swept batches.  This package drives the
simulated accelerators under live traffic instead:

* :mod:`repro.serve.traffic` — an open-loop (Poisson / bursty) load
  generator with Zipf-skewed tenants, reusing the
  :mod:`repro.workloads` samplers;
* :mod:`repro.serve.backend` — one :class:`Backend` protocol in front
  of the FANNS, MicroRec, and Farview performance models (plus a
  synthetic backend for tests and demos);
* :mod:`repro.serve.batcher` — a dynamic batcher (max-batch-size +
  max-wait-time) feeding replicated backend instances;
* :mod:`repro.serve.admission` — SLO-aware admission control and load
  shedding, plus a replica-autoscaler hook;
* :mod:`repro.serve.service` — the event-driven serving loop tying the
  pieces together, with latency accounting through
  :mod:`repro.obs` histograms and degradation under
  :mod:`repro.faults` plans.

Experiment **e24** (``repro run e24``) sweeps offered load per backend
and renders the latency-percentile / goodput saturation knee;
``python -m repro serve`` runs one-off sessions interactively.
"""

from .admission import (
    AdmissionController,
    AdmissionPolicy,
    AutoscalerPolicy,
    ReplicaAutoscaler,
)
from .backend import (
    Backend,
    FannsBackend,
    FarviewBackend,
    MicroRecBackend,
    SyntheticBackend,
    capacity_qps,
)
from .batcher import Batch, BatchPolicy, DynamicBatcher
from .service import ServiceConfig, ServiceReport, simulate_service
from .traffic import OpenLoopConfig, Request, generate_requests

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "AutoscalerPolicy",
    "Backend",
    "Batch",
    "BatchPolicy",
    "DynamicBatcher",
    "FannsBackend",
    "FarviewBackend",
    "MicroRecBackend",
    "OpenLoopConfig",
    "ReplicaAutoscaler",
    "Request",
    "ServiceConfig",
    "ServiceReport",
    "SyntheticBackend",
    "capacity_qps",
    "generate_requests",
    "simulate_service",
]
