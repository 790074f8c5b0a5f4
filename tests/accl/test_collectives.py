"""Functional correctness of the collective schedules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accl.collectives import allreduce_ring, allreduce_tree, broadcast_tree


def _buffers(p, n=8, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.random(n) for _ in range(p)]


@pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 8])
@pytest.mark.parametrize("algo", [broadcast_tree])
def test_broadcast_delivers_root_everywhere(p, algo):
    buffers = _buffers(p)
    out = algo(buffers, root=0)
    for b in out.buffers:
        assert np.array_equal(b, buffers[0])


def test_broadcast_nonzero_root():
    buffers = _buffers(5)
    out = broadcast_tree(buffers, root=3)
    for b in out.buffers:
        assert np.array_equal(b, buffers[3])


def test_broadcast_tree_takes_log_steps():
    for p in (2, 4, 8, 16):
        out = broadcast_tree(_buffers(p))
        assert len(out.steps) == math.ceil(math.log2(p))


@pytest.mark.parametrize("p", [1, 2, 4, 8])
@pytest.mark.parametrize("algo", [allreduce_ring, allreduce_tree])
def test_allreduce_sum_everywhere(p, algo):
    buffers = _buffers(p, n=8, seed=6)
    out = algo(buffers)
    want = np.sum(buffers, axis=0)
    for b in out.buffers:
        assert np.allclose(b, want)


def test_allreduce_ring_needs_divisible_buffers():
    with pytest.raises(ValueError):
        allreduce_ring(_buffers(3, n=8))


def test_allreduce_step_counts():
    for p in (2, 4, 8):
        ring = allreduce_ring(_buffers(p, n=p * 2))
        tree = allreduce_tree(_buffers(p))
        assert len(ring.steps) == 2 * (p - 1)
        assert len(tree.steps) == 2 * math.ceil(math.log2(p))


def _bytes_on_wire(outcome):
    """Bytes every step of a schedule sends, summed."""
    return sum(n for step in outcome.steps for _, _, n in step)


def test_ring_moves_fewer_bytes_per_node_than_tree():
    p, n = 8, 64
    ring = allreduce_ring(_buffers(p, n=n))
    tree = allreduce_tree(_buffers(p, n=n))
    nbytes = _buffers(p, n=n)[0].nbytes
    # Ring: 2(P-1) chunks of n/P per node ~ 2n bytes; tree moves whole
    # buffers every step.
    ring_per_node = _bytes_on_wire(ring) / p
    assert ring_per_node < 2.1 * nbytes
    assert _bytes_on_wire(tree) > ring_per_node * p / 2


def test_validation_errors():
    with pytest.raises(ValueError):
        broadcast_tree([])
    with pytest.raises(IndexError):
        broadcast_tree(_buffers(3), root=3)
    with pytest.raises(ValueError):
        allreduce_tree([np.zeros(3), np.zeros(4)])


@settings(max_examples=20, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=100),
)
def test_property_allreduce_tree_matches_numpy(p, seed):
    buffers = _buffers(p, n=6, seed=seed)
    out = allreduce_tree(buffers)
    want = np.sum(buffers, axis=0)
    for b in out.buffers:
        assert np.allclose(b, want)
