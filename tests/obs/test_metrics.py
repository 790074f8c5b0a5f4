"""Unit tests for the metrics registry (repro.obs.metrics)."""

import pytest

from repro.obs.metrics import MetricsRegistry


def test_counter_semantics():
    reg = MetricsRegistry()
    c = reg.counter("requests")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_semantics():
    reg = MetricsRegistry()
    g = reg.gauge("occupancy")
    g.set(3.0)
    assert g.value == 3.0
    g.set(2.0)
    assert g.value == 2.0


def test_get_or_create_same_instrument():
    reg = MetricsRegistry()
    a = reg.counter("puts", stream="s1")
    b = reg.counter("puts", stream="s1")
    assert a is b
    other = reg.counter("puts", stream="s2")
    assert other is not a
    assert len(reg.snapshot()) == 2


def test_label_canonicalisation_is_order_insensitive():
    reg = MetricsRegistry()
    a = reg.counter("x", kernel="k", port="in")
    b = reg.counter("x", port="in", kernel="k")
    assert a is b
    assert list(reg.snapshot()) == ["x{kernel=k,port=in}"]


def test_type_mismatch_rejected():
    reg = MetricsRegistry()
    reg.counter("v")
    with pytest.raises(TypeError):
        reg.gauge("v")


def test_snapshot_shape():
    reg = MetricsRegistry()
    reg.counter("puts", stream="a").inc(3)
    reg.gauge("depth").set(1.5)
    assert reg.snapshot() == {"depth": 1.5, "puts{stream=a}": 3}


def test_unlabelled_key_is_bare_name():
    reg = MetricsRegistry()
    reg.counter("bare").inc()
    assert reg.snapshot() == {"bare": 1}
