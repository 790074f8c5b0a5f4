"""The site and change rules behind ``python tools/unreached.py --sites``
and ``--sensitivity``.

A site is a numeric default of a parameter or of an ``int``/``float``
class field; a default of 0 is an origin, not a site, unless it is a
seed. A sensitivity run moves each site once: x1.5, +1 for an integer
below 4, and down by 1.5 for a fraction whose x1.5 would pass 1.
"""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "unreached.py"
_spec = importlib.util.spec_from_file_location("unreached", _TOOL)
unreached = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unreached)

_SOURCE = '''\
from dataclasses import dataclass


@dataclass
class Stats:
    puts: int = 0
    stall_ps: float = 0.0


@dataclass
class Model:
    name: str
    cores: int = 32
    usable_fraction: float = 0.8
    llc_bytes: int = 48 * 1024 * 1024
    label: str = "x"
    pipelined: bool = True
    widths: tuple = (4, 2)


def price(model, batch, *, lanes=8, efficiency=1.0, skew=0.5, delay=0,
          seed=0, depth=2):
    def inner(root=0, gain=1.5):
        return gain
    return inner
'''


def test_sites_are_numeric_defaults_without_counters():
    found = [(qualname, value)
             for _, qualname, value in unreached.sites(_SOURCE, "<src>")]
    assert found == [
        ("Model.cores", 32),
        ("Model.usable_fraction", 0.8),
        ("Model.llc_bytes", 48 * 1024 * 1024),
        ("price(lanes)", 8),
        ("price(efficiency)", 1.0),
        ("price(skew)", 0.5),
        ("price(seed)", 0),
        ("price(depth)", 2),
        ("price.<locals>.inner(gain)", 1.5),
    ]


def test_site_nodes_span_the_default_as_written():
    lines = _SOURCE.splitlines()
    spans = {}
    for node, qualname, _ in unreached.sites(_SOURCE, "<src>"):
        assert node.lineno == node.end_lineno
        spans[qualname] = lines[node.lineno - 1][
            node.col_offset:node.end_col_offset]
    assert spans["Model.llc_bytes"] == "48 * 1024 * 1024"
    assert spans["price(efficiency)"] == "1.0"


def test_change_rule():
    changed = unreached.changed
    assert [changed(v) for v in (0, 1, 3, 4, 16, 25, 1024)] == [
        1, 2, 4, 6, 24, 37, 1536]
    assert changed(1.5) == 2.25 and changed(2.0) == 3.0
    assert changed(0.5) == 0.75 and changed(1e-4) == 1e-4 * 1.5
    # A fraction whose x1.5 would pass 1 moves down instead.
    assert changed(0.8) == 0.8 / 1.5 and changed(1.0) == 1.0 / 1.5
    assert all(type(changed(v)) is type(v) for v in (1, 16, 0.8, 2.0))


def test_every_site_is_classified_with_its_reason():
    keep = _TOOL.with_name("sensitivity_keep.txt").read_text().splitlines()
    entries = [line for line in keep if not line.startswith("#")]
    assert entries
    for line in entries:
        path, qualname_and_reason = line.split(" ", 1)
        qualname, reason = qualname_and_reason.split("  # ", 1)
        kind, _, why = reason.partition(": ")
        assert (_TOOL.parents[1] / path).is_file(), line
        assert " " not in qualname, line
        assert kind in ("moves", "stops", "far", "lloyd", "api", "exact"), \
            line
        assert why.strip(), line
