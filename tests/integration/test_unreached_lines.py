"""The line counter behind ``python tools/unreached.py --lines``.

It is fed a small module and the set of lines a run executed; what it
reports as unexecuted must leave out ``raise`` statements, count the
body of a decorated function, and count a nested function only when
the function around it ran.
"""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "unreached.py"
_spec = importlib.util.spec_from_file_location("unreached", _TOOL)
unreached = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unreached)

_SOURCE = '''\
import functools


def check(x):
    if x < 0:
        raise ValueError(
            f"negative: {x}"
        )
    return x


def deco(fn):
    return fn


@deco
@functools.lru_cache(maxsize=None)
def cached(x):
    y = x + 1
    return y


def outer():
    def inner():
        return 1
    return inner
'''


def _line(text):
    """The 1-based number of the line of ``_SOURCE`` holding ``text``."""
    for number, line in enumerate(_SOURCE.splitlines(), 1):
        if text in line:
            return number
    raise AssertionError(f"no line holds {text!r}")


# What importing the module executes: imports, decorators, def lines.
_IMPORT = {_line(text) for text in (
    "import functools", "def check", "def deco", "@deco",
    "@functools", "def outer",
)}


def _missed(hit):
    return unreached.line_counts(_SOURCE, "<synthetic>", set(hit))[0]


def test_multi_line_raise_is_left_out():
    ran = _IMPORT | {_line("if x < 0"), _line("return x")}
    missed = _missed(ran)
    raise_lines = range(_line("raise ValueError"), _line("        )") + 1)
    assert not set(raise_lines) & set(missed)
    assert _line("return x") not in missed
    # The same lines as a call, not a raise, are reported.
    call = _SOURCE.replace("raise ValueError", "print")
    missed = unreached.line_counts(call, "<synthetic>", ran)[0]
    assert _line("raise ValueError") in missed


def test_lines_of_a_decorated_function_are_counted():
    body = [_line("y = x + 1"), _line("return y")]
    assert set(body) <= set(_missed(_IMPORT))
    assert not set(body) & set(_missed(_IMPORT | set(body)))


def test_nested_function_counts_only_when_its_parent_ran():
    inner_body = _line("return 1")
    outer_body = [_line("def inner"), _line("return inner")]
    # outer never ran: its body is unexecuted, inner's is not counted.
    missed = _missed(_IMPORT)
    assert set(outer_body) <= set(missed)
    assert inner_body not in missed
    # outer ran, inner did not: now inner's body counts.
    missed = _missed(_IMPORT | set(outer_body))
    assert inner_body in missed
    assert not set(outer_body) & set(missed)


def test_every_kept_function_gives_its_reason():
    keep = _TOOL.with_name("unreached_keep.txt").read_text().splitlines()
    entries = [line for line in keep if not line.startswith("#")]
    assert entries
    for line in entries:
        path, qualname_and_reason = line.split(" ", 1)
        qualname, reason = qualname_and_reason.split("  # ", 1)
        assert (_TOOL.parents[1] / path).is_file(), line
        assert " " not in qualname and reason.strip(), line
