"""The ``Backend`` protocol: one batch-costing surface per use case.

A serving backend is anything that can price a batch: given ``b``
queued requests, how many simulated picoseconds does one replica need
to finish them?  The three paper use cases map onto it through their
existing performance models, so the serving layer adds *no* second
cost model — it schedules the ones the offline experiments already
validate:

* :class:`FannsBackend` — the staged IVF-PQ pipeline
  (:class:`~repro.fanns.accelerator.FannsAccelerator`): a batch fills
  the pipeline, so cost = one full latency + ``(b-1)`` initiation
  intervals.  Strongly sub-linear — batching wins big.
* :class:`MicroRecBackend` — MicroRec's lookup/DNN stages
  (:class:`~repro.microrec.accelerator.MicroRecAccelerator`), priced by
  the accelerator's own ``price()`` from the model spec alone (no
  embedding tables are built, no MLP weights drawn).
* :class:`FarviewBackend` — one offloaded query plan on a Farview node
  (:class:`~repro.farview.server.FarviewServer`): the scan dominates
  and does not amortise, only the request/response overhead does —
  batching helps least, which is itself a finding the e24 table shows.
* :class:`SyntheticBackend` — a fixed ``overhead + b * per_item`` cost
  for unit tests, property tests, and CLI demos.

``capacity_qps`` converts a backend + replica count into the maximum
sustainable throughput at full batches; experiment e24 sweeps offered
load as a fraction of it, which is what puts the saturation knee at a
predictable position for every backend.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

__all__ = [
    "Backend",
    "FannsBackend",
    "FarviewBackend",
    "MicroRecBackend",
    "SyntheticBackend",
    "capacity_qps",
]

_PS_PER_S = 1_000_000_000_000


@runtime_checkable
class Backend(Protocol):
    """Anything the serving layer can schedule batches onto."""

    name: str
    max_batch: int

    def batch_service_ps(self, batch: int) -> int:
        """Simulated ps one replica needs to serve ``batch`` requests."""
        ...


def _check_batch(backend: "Backend", batch: int) -> None:
    if not 1 <= batch <= backend.max_batch:
        raise ValueError(
            f"{backend.name}: batch must be in 1..{backend.max_batch}, "
            f"got {batch}"
        )


def capacity_qps(backend: Backend, replicas: int) -> float:
    """Max sustainable request rate at full batches on ``replicas``."""
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    full = backend.batch_service_ps(backend.max_batch)
    return replicas * backend.max_batch * _PS_PER_S / full


class SyntheticBackend:
    """A fixed-cost backend: ``overhead + batch * per_item`` ps."""

    def __init__(
        self,
        service_ps: int = 1_000_000,
        per_item_ps: int = 100_000,
        max_batch: int = 8,
        name: str = "synthetic",
    ) -> None:
        if service_ps < 0 or per_item_ps < 0:
            raise ValueError("costs must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if service_ps + per_item_ps <= 0:
            raise ValueError("a batch must take positive time")
        self.name = name
        self.max_batch = max_batch
        self.overhead_ps = service_ps
        self.per_item_ps = per_item_ps

    def batch_service_ps(self, batch: int) -> int:
        _check_batch(self, batch)
        return self.overhead_ps + batch * self.per_item_ps


class FannsBackend:
    """FANNS ANN search as a servable backend.

    A batch of queries streams through the staged pipeline: the first
    result lands after the full stage latency, each further query one
    initiation interval (the bottleneck stage) later.  It prices an
    index shape alone (no trained index).
    """

    def __init__(
        self,
        shape,
        nprobe: int,
        max_batch: int,
        list_scale: int,
        config=None,
    ) -> None:
        from ..fanns.accelerator import FannsAccelerator, FannsConfig

        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.name = "fanns"
        self.max_batch = max_batch
        self.nprobe = nprobe
        accel = FannsAccelerator(
            shape, config or FannsConfig(), list_scale=list_scale
        )
        stages = accel.stage_times(nprobe)
        self._latency_ps = max(1, int(stages.latency_s * _PS_PER_S))
        self._ii_ps = max(1, int(stages.bottleneck_s * _PS_PER_S))

    def batch_service_ps(self, batch: int) -> int:
        _check_batch(self, batch)
        return self._latency_ps + (batch - 1) * self._ii_ps


class MicroRecBackend:
    """MicroRec CTR inference as a servable backend.

    Batch cost is ``MicroRecAccelerator.price``'s batch time, the same
    figure ``infer`` charges.  It depends only on the model spec, so
    the backend holds no embedding data.
    """

    def __init__(self, spec, max_batch: int, config=None) -> None:
        from ..microrec.accelerator import MicroRecAccelerator, MicroRecConfig

        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.name = "microrec"
        self.max_batch = max_batch
        self._accel = MicroRecAccelerator(
            spec, config=config or MicroRecConfig()
        )
        self._cache: dict[int, int] = {}

    def batch_service_ps(self, batch: int) -> int:
        _check_batch(self, batch)
        cached = self._cache.get(batch)
        if cached is None:
            batch_time_s = self._accel.price(batch).batch_time_s
            cached = max(1, int(batch_time_s * _PS_PER_S))
            self._cache[batch] = cached
        return cached


class FarviewBackend:
    """One offloaded query plan on a Farview memory node.

    Every request re-runs the node-side scan, so only the per-request
    protocol overhead amortises across a batch; service time is nearly
    linear in the batch size.
    """

    _REQUEST_BYTES = 128

    def __init__(self, server, plan, table_name: str,
                 max_batch: int) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.name = "farview"
        self.max_batch = max_batch
        execution = server.execute(plan, table_name)
        protocol = server.protocol
        overhead_ps = (
            protocol.message_ps(self._REQUEST_BYTES) + protocol.message_ps(0)
        )
        self._overhead_ps = max(1, int(overhead_ps))
        self._per_query_ps = max(1, int(execution.processing_s * _PS_PER_S))

    def batch_service_ps(self, batch: int) -> int:
        _check_batch(self, batch)
        return self._overhead_ps + batch * self._per_query_ps
