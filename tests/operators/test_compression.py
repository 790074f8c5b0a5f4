"""Unit and property tests for the compression codecs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import xeon_server
from repro.operators.compression import (
    codec_kernel_spec,
    cpu_codec_time_s,
    dict_decode,
    dict_encode,
    rle_decode,
    rle_encode,
)


def test_dict_roundtrip():
    rng = np.random.default_rng(1)
    column = rng.integers(0, 100, size=10_000)
    encoded = dict_encode(column)
    assert np.array_equal(dict_decode(encoded), column)
    assert encoded.codes.dtype == np.uint8
    assert encoded.ratio > 4  # int64 -> uint8 codes


def test_dict_code_width_grows_with_cardinality():
    wide = dict_encode(np.arange(70_000))
    assert wide.codes.dtype == np.uint32
    medium = dict_encode(np.arange(1_000))
    assert medium.codes.dtype == np.uint16


def test_rle_roundtrip_and_compression():
    column = np.repeat(np.arange(50), 200)
    encoded = rle_encode(column)
    assert np.array_equal(rle_decode(encoded), column)
    assert encoded.values.size == 50
    assert encoded.lengths.sum() == 10_000
    assert encoded.nbytes < column.nbytes / 10


def test_rle_worst_case_no_runs():
    column = np.arange(100)
    encoded = rle_encode(column)
    assert encoded.values.size == 100
    assert np.array_equal(rle_decode(encoded), column)


def test_rle_empty():
    encoded = rle_encode(np.array([], dtype=np.int64))
    assert rle_decode(encoded).size == 0
    assert encoded.lengths.sum() == 0


def test_codec_kernel_specs():
    for kind in ("dict-decode", "rle-decode", "dict-encode", "rle-encode"):
        spec = codec_kernel_spec(kind)
        assert spec.ii == 1
        assert spec.unroll == 8
    assert (codec_kernel_spec("dict-encode").depth
            > codec_kernel_spec("dict-decode").depth)
    with pytest.raises(ValueError):
        codec_kernel_spec("zstd")


def test_cpu_codec_costs():
    cpu = xeon_server()
    n = 1 << 30
    decode = cpu_codec_time_s(cpu, n, "dict-decode", parallel=False)
    encode = cpu_codec_time_s(cpu, n, "dict-encode", parallel=False)
    assert encode > decode
    with pytest.raises(ValueError):
        cpu_codec_time_s(cpu, n, "zstd")


def test_fpga_codec_beats_single_core():
    cpu = xeon_server()
    spec = codec_kernel_spec("dict-encode")
    n_values = 1 << 27  # values, 8 B each
    fpga = spec.latency_seconds(n_values)
    host = cpu_codec_time_s(cpu, n_values * 8, "dict-encode", parallel=False)
    assert fpga < host


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.integers(min_value=-1000, max_value=1000),
                    max_size=300)
)
def test_property_both_codecs_roundtrip(values):
    column = np.array(values, dtype=np.int64)
    if column.size:
        assert np.array_equal(dict_decode(dict_encode(column)), column)
    assert np.array_equal(rle_decode(rle_encode(column)), column)
