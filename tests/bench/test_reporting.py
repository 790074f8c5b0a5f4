"""Unit tests for the bench reporting helpers."""

import pytest

from repro.bench.reporting import ResultTable, format_quantity


def test_format_quantity_suffixes():
    assert format_quantity(1_500_000.0) == "1.5M"
    assert format_quantity(2.5e9) == "2.5G"
    assert format_quantity(0.004) == "4m"
    assert format_quantity(3.2e-6) == "3.2u"
    assert format_quantity(1.1e-9) == "1.1n"
    assert format_quantity(0) == "0"
    assert format_quantity(0.0) == "0"
    assert format_quantity(42) == "42"
    assert format_quantity(1234567) == "1,234,567"
    assert format_quantity("text") == "text"
    assert format_quantity(True) == "True"
    assert format_quantity(0.5) == "0.5"


def test_format_quantity_boundary_promotion():
    # values that round across a decade boundary must promote to the
    # next suffix band (the pre-fix fall-through printed "1e+03" here)
    assert format_quantity(999.9996) == "1K"
    assert format_quantity(9.9999e-13) == "1p"
    assert format_quantity(999_999.6) == "1M"
    assert format_quantity(0.0099999) == "0.01"


def test_format_quantity_exact_boundaries():
    assert format_quantity(1000.0) == "1K"
    assert format_quantity(1e-12) == "1p"
    assert format_quantity(0.01) == "0.01"
    assert format_quantity(999.4) == "999"


def test_format_quantity_below_smallest_suffix_is_scientific():
    assert format_quantity(9e-13) == "9e-13"
    assert format_quantity(2.5e-14) == "2.5e-14"


def test_format_quantity_negative_and_digits():
    assert format_quantity(-1500.0) == "-1.5K"
    assert format_quantity(1234.0, digits=4) == "1.234K"


def test_result_table_render():
    table = ResultTable("Demo", ("size", "time"))
    table.add(1024, 1.5e-3)
    table.add(2048, 3.0e-3)
    table.note("synthetic")
    text = table.render()
    assert "Demo" in text
    assert "size" in text and "time" in text
    assert "1.5m" in text
    assert "* synthetic" in text


def test_result_table_row_arity_checked():
    table = ResultTable("Demo", ("a", "b"))
    with pytest.raises(ValueError):
        table.add(1)


def test_empty_table_renders():
    table = ResultTable("Empty", ("col",))
    assert "Empty" in table.render()


def test_result_table_metrics_section_renders():
    table = ResultTable("T", ("x",))
    table.add(1)
    table.add_metrics(
        {"kernel.items{kernel=k}": 64, "stream.occupancy{stream=s}": 1.5},
        title="obs metrics",
    )
    text = table.render()
    assert "-- obs metrics --" in text
    assert "kernel.items{kernel=k}" in text
    assert "stream.occupancy{stream=s}  1.5" in text


def test_show_prints(capsys):
    table = ResultTable("T", ("x",))
    table.add(1)
    table.show()
    assert "T" in capsys.readouterr().out
