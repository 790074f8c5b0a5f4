"""CPU recommendation-inference baseline.

The CPU runs the same functional path (gather embeddings, run the MLP)
with roofline timing: each embedding read is a dependent random DRAM
access (tables far exceed the LLC), and the MLP is a GEMV per
inference.  This is the inference stack MicroRec reports one order of
magnitude of latency against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.cpu import CpuModel, xeon_server
from .dnn import Mlp
from .embedding import EmbeddingTables

__all__ = ["CpuInferenceOutcome", "CpuRecommender"]


@dataclass(frozen=True)
class CpuInferenceOutcome:
    """Logits plus modeled CPU timing."""

    logits: np.ndarray
    lookup_s: float
    dnn_s: float
    latency_s: float      # one inference, one core
    batch_time_s: float   # whole batch, all cores
    qps: float


class CpuRecommender:
    """The same model served from CPU DRAM."""

    def __init__(
        self,
        tables: EmbeddingTables,
        cpu: CpuModel | None = None,
        seed: int = 0,
    ) -> None:
        self.tables = tables
        self.cpu = cpu or xeon_server()
        spec = tables.spec
        self.mlp = Mlp(spec.concat_width, spec.mlp_layers, seed=seed)

    def _lookup_time_s(self, batch: int, parallel: bool) -> float:
        spec = self.tables.spec
        return self.cpu.random_access_time_s(
            n_accesses=batch * spec.n_tables,
            bytes_each=spec.embedding_bytes,
            working_set_bytes=spec.total_embedding_bytes,
            parallel=parallel,
        )

    def _dnn_time_s(self, batch: int, parallel: bool) -> float:
        per = sum(
            self.cpu.gemv_time_s(w.shape[0], w.shape[1], parallel=False)
            for w in self.mlp.weights
        )
        if not parallel:
            return batch * per
        # Batched inference parallelises across cores.
        return batch * per / self.cpu.cores

    def infer(self, trace: np.ndarray) -> CpuInferenceOutcome:
        """Run a batch: functional logits + modeled timing."""
        trace = np.asarray(trace)
        batch = trace.shape[0]
        if batch < 1:
            raise ValueError("batch must contain at least one inference")
        features = self.tables.lookup(trace)
        logits = self.mlp.forward(features)
        lookup = self._lookup_time_s(batch, parallel=True)
        dnn = self._dnn_time_s(batch, parallel=True)
        latency = self._lookup_time_s(1, parallel=False) + self._dnn_time_s(
            1, parallel=False
        )
        batch_time = lookup + dnn
        return CpuInferenceOutcome(
            logits=logits,
            lookup_s=lookup,
            dnn_s=dnn,
            latency_s=latency,
            batch_time_s=batch_time,
            qps=batch / batch_time,
        )
