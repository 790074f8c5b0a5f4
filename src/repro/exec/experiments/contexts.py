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
    "fanns_shape",
    "microrec_model",
    "microrec_tables",
    "microrec_trace",
    "scale_key",
    "small_microrec_model",
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


# (n, dim, nlist) of the FANNS dataset and index at smoke and full
# scale; the index has m=16 one-byte codes over ksub=256 centroids.
_FANNS_SIZES = {True: (8_000, 16, 32), False: (20_000, 32, 256)}
_FANNS_M, _FANNS_KSUB = 16, 256


@lru_cache(maxsize=None)
def _fanns_dataset(smoke: bool):
    from ...workloads import clustered_dataset

    # At smoke scale dim=16 with m=16 gives one PQ subquantiser per
    # dimension, so recall stays near-exact and the shape claims hold.
    n, dim, _ = _FANNS_SIZES[smoke]
    return clustered_dataset(
        n=n, dim=dim, n_queries=64 if smoke else 100, gt_k=10,
        n_clusters=32 if smoke else 64, cluster_std=0.25, seed=13,
    )


def fanns_dataset():
    """Clustered dataset + ground truth for the FANNS experiments."""
    return _fanns_dataset(smoke_scale())


@lru_cache(maxsize=None)
def _fanns_index(smoke: bool):
    from ...fanns import build_ivfpq

    return build_ivfpq(_fanns_dataset(smoke).base, _FANNS_SIZES[smoke][2],
                       m=_FANNS_M, ksub=_FANNS_KSUB, seed=13)


def fanns_index():
    """A trained IVF-PQ index over the session dataset."""
    return _fanns_index(smoke_scale())


def fanns_shape():
    """The shape of :func:`fanns_index`, known without building it."""
    from ...fanns import IndexShape

    n, dim, nlist = _FANNS_SIZES[smoke_scale()]
    return IndexShape(nlist, dim, _FANNS_M, _FANNS_KSUB, dim // _FANNS_M,
                      code_nbytes=_FANNS_M, residual=True, n_vectors=n)


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
    """The MicroRec experiments' embedding tables (rows drawn on lookup)."""
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
def small_microrec_model():
    """A smaller model spec for the e9 channel sweep."""
    from ...workloads import production_like_model

    return production_like_model(n_tables=32, max_rows=100_000, seed=9)
