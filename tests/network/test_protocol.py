"""Unit tests for transport protocol models."""

import pytest

from repro.network.link import ethernet_100g
from repro.network.protocol import ProtocolModel, fpga_rdma, fpga_tcp, kernel_tcp


def test_overhead_ordering_rdma_fpga_kernel():
    """The tutorial's stack argument: RDMA < FPGA TCP << kernel TCP."""
    n = 64
    t_rdma = fpga_rdma().message_ps(n)
    t_ftcp = fpga_tcp().message_ps(n)
    t_ktcp = kernel_tcp().message_ps(n)
    assert t_rdma < t_ftcp < t_ktcp
    assert t_ktcp > 5 * t_rdma


def test_small_message_latency_microseconds():
    # One-sided RDMA small message: ~1.5-2 us end to end.
    t = fpga_rdma().message_ps(64)
    assert 1_000_000 < t < 3_000_000


def test_goodput_kernel_tcp_cannot_sustain_line_rate():
    """Per-frame CPU overhead caps kernel TCP goodput well below 100G."""
    msg = 64 * 1024
    g_kernel = kernel_tcp().goodput_bytes_per_sec(msg)
    g_fpga = fpga_tcp().goodput_bytes_per_sec(msg)
    line = ethernet_100g().bandwidth_bytes_per_sec
    assert g_fpga > 0.8 * line
    # A single kernel-TCP flow lands around 30-50 Gbps on 100G hardware.
    assert g_kernel < 0.6 * line
    assert g_kernel < 0.6 * g_fpga


def test_rdma_is_one_sided():
    assert fpga_rdma().one_sided
    assert not fpga_tcp().one_sided


def test_zero_payload_message_still_costs_overheads():
    p = fpga_tcp()
    assert p.message_ps(0) >= p.send_overhead_ps + p.recv_overhead_ps


def test_negative_overhead_rejected():
    with pytest.raises(ValueError):
        ProtocolModel(
            name="bad",
            link=ethernet_100g(),
            send_overhead_ps=-1,
            recv_overhead_ps=0,
        )


def test_goodput_zero_bytes():
    assert fpga_tcp().goodput_bytes_per_sec(0) == 0.0
