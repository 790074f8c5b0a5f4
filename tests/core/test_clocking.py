"""Unit tests for clock domains."""

import pytest

from repro.core.clocking import (
    FABRIC_200MHZ,
    FABRIC_300MHZ,
    HBM_450MHZ,
    PS_PER_NS,
    ClockDomain,
)


def test_from_mhz_rounds_period_to_ps():
    clk = ClockDomain.from_mhz("test", 250.0)
    assert clk.period_ps == 4000
    assert clk.freq_hz == pytest.approx(250e6)


def test_300mhz_period():
    assert FABRIC_300MHZ.period_ps == 3333
    # Rounding error below 0.03%.
    assert FABRIC_300MHZ.freq_hz == pytest.approx(300e6, rel=3e-4)


def test_cycles_to_ps_roundtrip():
    clk = FABRIC_200MHZ
    assert clk.cycles_to_ps(1) == 5000
    assert clk.cycles_to_ps(2) == 10_000


def test_cycles_to_seconds():
    assert FABRIC_200MHZ.cycles_to_seconds(200_000_000) == pytest.approx(1.0)


def test_fractional_cycles_supported():
    assert FABRIC_200MHZ.cycles_to_ps(0.5) == 2500


def test_invalid_clock_rejected():
    with pytest.raises(ValueError):
        ClockDomain("bad", 0)
    with pytest.raises(ValueError):
        ClockDomain.from_mhz("bad", -1)


def test_hbm_clock_faster_than_fabric():
    assert HBM_450MHZ.period_ps < FABRIC_300MHZ.period_ps


def test_ps_constants():
    assert PS_PER_NS == 1000
