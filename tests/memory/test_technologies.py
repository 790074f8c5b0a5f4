"""Sanity checks on the technology parameter sets.

These tests pin the *ordering relations* the use-case arguments depend
on, not exact datasheet values.
"""

from repro.memory.technologies import (
    ddr4_channel,
    hbm2_channel,
    host_over_pcie3,
)


def test_hbm_latency_below_host_over_pcie():
    assert hbm2_channel().latency_ps < host_over_pcie3().latency_ps


def test_aggregate_hbm_bandwidth_beats_ddr_and_pcie():
    hbm_total = 32 * hbm2_channel().bandwidth_bytes_per_sec
    ddr_total = 4 * ddr4_channel().bandwidth_bytes_per_sec
    assert hbm_total > 5 * ddr_total
    assert hbm_total > 30 * host_over_pcie3().bandwidth_bytes_per_sec


def test_single_hbm_channel_slower_than_ddr_channel():
    assert (
        hbm2_channel().bandwidth_bytes_per_sec
        < ddr4_channel().bandwidth_bytes_per_sec
    )


def test_random_access_penalties():
    for make in (hbm2_channel, ddr4_channel, host_over_pcie3):
        m = make()
        assert m.random_efficiency < 1.0
