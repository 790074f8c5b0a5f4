"""Shared fixtures for the experiment benchmarks.

The fixtures delegate to the spec context builders in
``repro.exec.experiments.contexts`` — the single source of truth for
dataset/index/model construction parameters — so the pytest bench path
and ``repro run eN`` always operate on identical artifacts.  The
builders are ``lru_cache``d, so the whole
``pytest benchmarks/ --benchmark-only`` run builds each once (the
session scope here just avoids re-entering the cached call).
"""

import pytest

from repro.exec.experiments import (
    FANNS_LIST_SCALE,  # noqa: F401  (re-export for bench modules)
    fanns_dataset,
    fanns_index,
    microrec_model,
    microrec_tables,
    microrec_trace,
)


@pytest.fixture(scope="session")
def vector_data():
    """Clustered dataset + ground truth for the FANNS experiments."""
    return fanns_dataset()


@pytest.fixture(scope="session")
def ivfpq_index(vector_data):
    """A trained IVF-PQ index over the session dataset."""
    return fanns_index()


@pytest.fixture(scope="session")
def rec_model():
    """A production-shaped recommendation model spec."""
    return microrec_model()


@pytest.fixture(scope="session")
def rec_tables(rec_model):
    """Materialised embedding tables for the MicroRec experiments."""
    return microrec_tables()


@pytest.fixture(scope="session")
def rec_trace(rec_model):
    """A 256-inference lookup trace."""
    return microrec_trace()
