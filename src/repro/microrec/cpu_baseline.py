"""CPU recommendation-inference baseline.

The CPU runs the same functional path (gather embeddings, run the MLP)
with roofline timing: each embedding read is a dependent random DRAM
access (tables far exceed the LLC), and the MLP is a GEMV per
inference.  This is the inference stack MicroRec reports one order of
magnitude of latency against.  Like the accelerator, it prices a batch
with :meth:`CpuRecommender.price` from the model spec and layer widths
alone.
"""

from __future__ import annotations

import numpy as np

from ..baselines.cpu import CpuModel, xeon_server
from ..workloads.traces import RecModelSpec
from .accelerator import BatchTiming, InferenceOutcome
from .dnn import Mlp
from .embedding import EmbeddingTables

__all__ = ["CpuRecommender"]


class CpuRecommender:
    """The same model served from CPU DRAM."""

    def __init__(
        self,
        spec: RecModelSpec,
        cpu: CpuModel | None = None,
    ) -> None:
        self.spec = spec
        self.cpu = cpu or xeon_server()
        self.mlp = Mlp(spec.concat_width, spec.mlp_layers)

    def _lookup_time_s(self, batch: int, parallel: bool) -> float:
        spec = self.spec
        return self.cpu.random_access_time_s(
            n_accesses=batch * spec.n_tables,
            bytes_each=spec.embedding_bytes,
            working_set_bytes=spec.total_embedding_bytes,
            parallel=parallel,
        )

    def _dnn_time_s(self, batch: int, parallel: bool) -> float:
        per = sum(
            self.cpu.gemv_time_s(fan_in, fan_out, parallel=False)
            for fan_in, fan_out in self.mlp.layer_shapes
        )
        if not parallel:
            return batch * per
        # Batched inference parallelises across cores.
        return batch * per / self.cpu.cores

    def price(self, batch: int) -> BatchTiming:
        """Modeled timing of ``batch`` inferences: the batch spreads
        over all cores, one inference runs on one."""
        if batch < 1:
            raise ValueError("batch must contain at least one inference")
        lookup = self._lookup_time_s(batch, parallel=True)
        dnn = self._dnn_time_s(batch, parallel=True)
        latency = self._lookup_time_s(1, parallel=False) + self._dnn_time_s(
            1, parallel=False
        )
        batch_time = lookup + dnn
        return BatchTiming(
            lookup_s=lookup,
            dnn_s=dnn,
            latency_s=latency,
            batch_time_s=batch_time,
            qps=batch / batch_time,
        )

    def infer(
        self, tables: EmbeddingTables, trace: np.ndarray
    ) -> InferenceOutcome:
        """Run a batch gathered from ``tables``: logits + modeled timing."""
        if tables.spec != self.spec:
            raise ValueError("tables were built for a different model spec")
        timing = self.price(len(trace))
        logits = self.mlp.forward(tables.lookup(trace))
        return InferenceOutcome(logits=logits, **vars(timing))
