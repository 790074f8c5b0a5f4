"""Unit tests for the physical link model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.link import LinkModel, ethernet_100g


def test_bandwidth_conversion():
    link = ethernet_100g()
    assert link.bandwidth_bytes_per_sec == pytest.approx(12.5e9)


def test_serialization_scales_with_size():
    link = ethernet_100g()
    # 12.5 GB at 12.5 GB/s = 1 s, ignoring framing (<2% for 4 KiB MTU).
    t = link.serialization_ps(12_500_000_000)
    assert t == pytest.approx(1e12, rel=0.03)


def test_framing_overhead_dominates_tiny_messages():
    link = ethernet_100g()
    # A 1-byte message still ships a whole frame header.
    assert link.serialization_ps(1) > link.serialization_ps(0) / 2
    assert link.frames_for(0) == 1
    assert link.frames_for(1) == 1
    assert link.frames_for(4096) == 1
    assert link.frames_for(4097) == 2


def test_transfer_includes_propagation():
    link = ethernet_100g(propagation_ps=1_000_000)
    assert link.transfer_ps(0) >= 1_000_000


def test_goodput_approaches_line_rate_for_large_messages():
    link = ethernet_100g()

    def goodput(nbytes):
        return nbytes * 1e12 / link.transfer_ps(nbytes)

    assert goodput(64) < goodput(16 * 1024 * 1024)
    assert goodput(16 * 1024 * 1024) == pytest.approx(
        link.bandwidth_bytes_per_sec, rel=0.05
    )


def test_invalid_link_parameters():
    with pytest.raises(ValueError):
        LinkModel("bad", bandwidth_bits_per_sec=0, propagation_ps=500_000)
    with pytest.raises(ValueError):
        LinkModel("bad", bandwidth_bits_per_sec=1e9, mtu_bytes=0,
                  propagation_ps=500_000)
    with pytest.raises(ValueError):
        LinkModel("bad", bandwidth_bits_per_sec=1e9, propagation_ps=-1)


@settings(max_examples=50, deadline=None)
@given(nbytes=st.integers(min_value=0, max_value=1 << 28))
def test_property_transfer_time_monotone(nbytes):
    link = ethernet_100g()
    assert link.transfer_ps(nbytes) <= link.transfer_ps(nbytes + 4096)
