"""Unit tests for the device catalog and resource vectors."""

import pytest

from repro.core.device import (
    ALVEO_U250,
    ALVEO_U280,
    ALVEO_U55C,
    DEVICE_CATALOG,
    Device,
    ResourceVector,
)


def test_resource_vector_addition_and_scaling():
    a = ResourceVector(lut=10, dsp=1)
    b = ResourceVector(lut=5, bram_36k=2)
    c = a + b
    assert c.lut == 15 and c.dsp == 1 and c.bram_36k == 2
    d = a * 3
    assert d.lut == 30 and d.dsp == 3
    assert (2 * a).lut == 20


def test_negative_resources_rejected():
    with pytest.raises(ValueError):
        ResourceVector(lut=-1)
    with pytest.raises(ValueError):
        ResourceVector() * -1


def test_fits_in_componentwise():
    small = ResourceVector(lut=10, dsp=1)
    big = ResourceVector(lut=100, dsp=10, bram_36k=5)
    assert small.fits_in(big)
    assert not big.fits_in(small)


def test_utilization_handles_zero_budget():
    demand = ResourceVector(lut=10, hbm_channels=2)
    budget = ResourceVector(lut=100)
    util = demand.utilization(budget)
    assert util["lut"] == pytest.approx(0.1)
    assert util["hbm_channels"] == float("inf")
    assert util["dsp"] == 0.0


def test_catalog_devices_are_consistent():
    assert set(DEVICE_CATALOG) == {"u250", "u280", "u55c"}
    assert ALVEO_U250.resources.hbm_channels == 0
    assert ALVEO_U280.resources.hbm_channels == 32
    assert ALVEO_U55C.resources.hbm_channels == 32
    # U55C has twice the HBM capacity of U280.
    assert ALVEO_U55C.hbm_capacity_bytes == 2 * ALVEO_U280.hbm_capacity_bytes
    # Aggregate HBM bandwidth ~460 GB/s on both HBM boards.
    u280 = ALVEO_U280
    hbm = u280.resources.hbm_channels * u280.hbm_channel_bandwidth
    assert hbm == pytest.approx(460e9, rel=0.01)


def test_budget_applies_shell_overhead_but_not_to_hbm():
    dev = ALVEO_U280
    assert dev.budget.lut == int(dev.resources.lut * dev.usable_fraction)
    assert dev.budget.hbm_channels == dev.resources.hbm_channels


def test_device_fits_and_report():
    demand = ResourceVector(lut=500_000, dsp=1_000, hbm_channels=16)
    assert ALVEO_U280.fits(demand)
    report = ALVEO_U280.utilization_report(demand)
    assert 0 < report["lut"] < 1
    assert report["hbm_channels"] == pytest.approx(0.5)
    too_big = ResourceVector(lut=2_000_000)
    assert not ALVEO_U280.fits(too_big)


def test_u250_has_no_hbm_but_most_fabric():
    assert ALVEO_U250.resources.hbm_channels == 0
    assert ALVEO_U250.resources.lut > ALVEO_U280.resources.lut
    assert ALVEO_U250.ddr_channels * ALVEO_U250.ddr_channel_bandwidth > 0


def test_onchip_sram_sizes_plausible():
    # U280/U55C: 2016 BRAM36 (~8.8 MiB) + 960 URAM (~33.8 MiB).
    sram = ALVEO_U280.onchip_sram_bytes
    assert 40 * 1024 * 1024 < sram < 50 * 1024 * 1024


def test_usable_fraction_validation():
    with pytest.raises(ValueError):
        Device(name="bad", resources=ResourceVector(), usable_fraction=0.0)
    with pytest.raises(ValueError):
        Device(name="bad", resources=ResourceVector(), usable_fraction=1.5)
