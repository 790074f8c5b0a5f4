"""Shared experiment contexts: the expensive seeded artifacts.

These builders are the single source of truth for the dataset, index,
and embedding-table parameters the specs' ``prepare()`` phases use.

``REPRO_SMOKE=1`` scales the artifacts down to the smoke sizes the
committed goldens are rendered at, so the registry-driven CI jobs and
the golden tests finish in seconds; the scale is part of every
dependent cell's cache identity (see :func:`scale_key`), so smoke and
full results never collide in ``results/cache/``.
"""

from __future__ import annotations

import os
from functools import lru_cache

__all__ = [
    "FANNS_LIST_SCALE",
    "fanns_dataset",
    "fanns_index",
    "microrec_model",
    "microrec_tables",
    "microrec_trace",
    "scale_key",
    "small_microrec_tables",
    "smoke_scale",
]

# Deployment-scale multiplier for FANNS timing (see DESIGN.md §1: the
# functional index is small; the papers' datasets are 1e8-1e9 vectors).
FANNS_LIST_SCALE = 2_000


def smoke_scale() -> bool:
    """True when ``REPRO_SMOKE`` asks for the scaled-down artifacts."""
    return bool(os.environ.get("REPRO_SMOKE"))


def scale_key() -> dict:
    """Cache-identity fragment for specs built on scaled contexts."""
    return {"scale": "smoke" if smoke_scale() else "full"}


@lru_cache(maxsize=None)
def _fanns_dataset(smoke: bool):
    from ...workloads import clustered_dataset

    if smoke:
        # dim=16 with m=16 gives one PQ subquantiser per dimension, so
        # recall stays near-exact and the shape claims still hold.
        return clustered_dataset(
            n=8_000, dim=16, n_queries=64, gt_k=10, n_clusters=32,
            cluster_std=0.25, seed=13,
        )
    return clustered_dataset(
        n=20_000, dim=32, n_queries=100, gt_k=10, n_clusters=64,
        cluster_std=0.25, seed=13,
    )


def fanns_dataset():
    """Clustered dataset + ground truth for the FANNS experiments."""
    return _fanns_dataset(smoke_scale())


@lru_cache(maxsize=None)
def _fanns_index(smoke: bool):
    from ...fanns import build_ivfpq

    data = _fanns_dataset(smoke)
    nlist = 32 if smoke else 256
    return build_ivfpq(data.base, nlist=nlist, m=16, ksub=256, seed=13)


def fanns_index():
    """A trained IVF-PQ index over the session dataset."""
    return _fanns_index(smoke_scale())


@lru_cache(maxsize=None)
def _microrec_model(smoke: bool):
    from ...workloads import production_like_model

    max_rows = 200_000 if smoke else 2_000_000
    return production_like_model(n_tables=47, max_rows=max_rows, seed=21)


def microrec_model():
    """A production-shaped recommendation model spec."""
    return _microrec_model(smoke_scale())


@lru_cache(maxsize=None)
def _microrec_tables(smoke: bool):
    from ...microrec import EmbeddingTables

    return EmbeddingTables(_microrec_model(smoke), seed=21)


def microrec_tables():
    """Materialised embedding tables for the MicroRec experiments."""
    return _microrec_tables(smoke_scale())


@lru_cache(maxsize=None)
def _microrec_trace(smoke: bool):
    from ...workloads import lookup_trace

    batch = 64 if smoke else 256
    return lookup_trace(_microrec_model(smoke), batch_size=batch, seed=22)


def microrec_trace():
    """The session lookup trace (one batch of inferences)."""
    return _microrec_trace(smoke_scale())


@lru_cache(maxsize=None)
def small_microrec_tables():
    """A smaller model/tables pair for the e9 channel sweep."""
    from ...microrec import EmbeddingTables
    from ...workloads import production_like_model

    model = production_like_model(n_tables=32, max_rows=100_000, seed=9)
    return model, EmbeddingTables(model, seed=9)
