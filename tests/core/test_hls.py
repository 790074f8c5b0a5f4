"""Unit tests for the mini HLS front end."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hls import LoopNest, Pragmas, synthesize


def _simple_loop(n=1000):
    return LoopNest(
        name="vadd",
        trip_count=n,
        ops={"mem_read": 2, "add": 1, "mem_write": 1},
    )


def test_iteration_latency_sums_op_chain():
    loop = _simple_loop()
    # 2 reads (2 cy each) + add (1) + write (1) = 6.
    assert loop.iteration_latency() == 6


def test_pipelined_kernel_reaches_ii_1():
    spec = synthesize(_simple_loop(), Pragmas(pipeline=True, pipeline_ii=1))
    assert spec.ii == 1
    assert spec.depth == 6


def test_no_pipeline_degenerates_to_temporal():
    loop = _simple_loop()
    spec = synthesize(loop, Pragmas(pipeline=False))
    assert spec.ii == loop.iteration_latency()
    # Pipelining must improve latency for long loops.
    piped = synthesize(loop, Pragmas(pipeline=True))
    assert piped.latency_cycles(1000) < spec.latency_cycles(1000)


def test_unroll_multiplies_resources_and_throughput():
    loop = _simple_loop()
    narrow = synthesize(loop, Pragmas(unroll=1))
    wide = synthesize(loop, Pragmas(unroll=8))
    assert wide.unroll == 8
    assert wide.resources.lut > narrow.resources.lut
    assert wide.throughput_items_per_sec() == pytest.approx(
        8 * narrow.throughput_items_per_sec()
    )


def test_unknown_op_rejected():
    with pytest.raises(ValueError, match="unknown op"):
        LoopNest("bad", 10, {"teleport": 1})


def test_invalid_pragmas_rejected():
    with pytest.raises(ValueError):
        Pragmas(pipeline_ii=0)
    with pytest.raises(ValueError):
        Pragmas(unroll=0)


def test_negative_trip_count_rejected():
    with pytest.raises(ValueError):
        LoopNest("bad", -1)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=100_000),
    ii=st.integers(min_value=1, max_value=8),
    unroll=st.integers(min_value=1, max_value=16),
)
def test_property_pipelining_never_slower_than_sequential(n, ii, unroll):
    """Spatial execution with any pragma set beats temporal execution."""
    loop = _simple_loop(n=n)
    spec = synthesize(loop, Pragmas(pipeline=True, pipeline_ii=ii, unroll=unroll))
    assert spec.latency_cycles(n) <= n * loop.iteration_latency() + spec.depth
