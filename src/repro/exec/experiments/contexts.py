"""Shared experiment contexts: the expensive seeded artifacts.

These builders are the single source of truth for the dataset, index,
and embedding-table parameters the specs' ``prepare()`` phases use.
Each is built once per process and shared by every experiment that
reads it.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = [
    "FANNS_LIST_SCALE",
    "fanns_dataset",
    "fanns_index",
    "fanns_shape",
    "microrec_model",
    "microrec_tables",
    "microrec_trace",
    "small_microrec_model",
]

# Deployment-scale multiplier for FANNS timing (see DESIGN.md §1: the
# functional index is small; the papers' datasets are 1e8-1e9 vectors).
FANNS_LIST_SCALE = 2_000

# (n, dim, nlist) of the FANNS dataset and index; the index has m=16
# one-byte codes over ksub=256 centroids.
_FANNS_N, _FANNS_DIM, _FANNS_NLIST = 20_000, 32, 256
_FANNS_M, _FANNS_KSUB = 16, 256


@lru_cache(maxsize=None)
def fanns_dataset():
    """Clustered dataset + ground truth for the FANNS experiments."""
    from ...workloads import clustered_dataset

    return clustered_dataset(
        n=_FANNS_N, dim=_FANNS_DIM, n_queries=100, gt_k=10,
        n_clusters=64, cluster_std=0.25, seed=13,
    )


@lru_cache(maxsize=None)
def fanns_index():
    """A trained IVF-PQ index over the session dataset."""
    from ...fanns import build_ivfpq

    return build_ivfpq(fanns_dataset().base, _FANNS_NLIST,
                       m=_FANNS_M, ksub=_FANNS_KSUB, seed=13)


def fanns_shape():
    """The shape of :func:`fanns_index`, known without building it."""
    from ...fanns import IndexShape

    return IndexShape(_FANNS_NLIST, _FANNS_DIM, _FANNS_M, _FANNS_KSUB,
                      _FANNS_DIM // _FANNS_M, code_nbytes=_FANNS_M,
                      n_vectors=_FANNS_N)


@lru_cache(maxsize=None)
def microrec_model():
    """A production-shaped recommendation model spec."""
    from ...workloads import production_like_model

    return production_like_model(n_tables=47, max_rows=2_000_000, seed=21)


@lru_cache(maxsize=None)
def microrec_tables():
    """The MicroRec experiments' embedding tables (rows drawn on lookup)."""
    from ...microrec import EmbeddingTables

    return EmbeddingTables(microrec_model(), seed=21)


@lru_cache(maxsize=None)
def microrec_trace():
    """The session lookup trace (one batch of inferences)."""
    from ...workloads import lookup_trace

    return lookup_trace(microrec_model(), batch_size=256, skew=0.8, seed=22)


@lru_cache(maxsize=None)
def small_microrec_model():
    """A smaller model spec for the e9 channel sweep."""
    from ...workloads import production_like_model

    return production_like_model(n_tables=32, max_rows=100_000, seed=9)
