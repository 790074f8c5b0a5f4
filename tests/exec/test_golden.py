"""Every experiment's tables against its committed golden.

``results/golden/eN.txt`` holds experiment eN's tables exactly as
``python -m repro run eN`` prints them, without the ``[eN] K cells``
summary line.  There is one scale: the goldens are the full-scale
tables the paper's claims are read from.  Each case runs the
experiment through :func:`~repro.exec.run_spec` and compares the
printed tables with that file.  ``pytest --write-golden``
rewrites the files instead; a change that does so must say which
tables moved and why.
"""

from pathlib import Path

import pytest

from repro.exec import build_spec, experiment_ids, run_spec

GOLDEN_DIR = Path(__file__).resolve().parents[2] / "results" / "golden"


def _printed_tables(exp_id: str) -> str:
    """The tables as ``repro run`` prints them (``ResultTable.show``)."""
    tables = run_spec(build_spec(exp_id))
    return "".join(f"\n{table.render()}\n\n" for table in tables)


@pytest.mark.parametrize("exp_id", experiment_ids())
def test_tables_match_golden(exp_id, write_golden):
    path = GOLDEN_DIR / f"{exp_id}.txt"
    printed = _printed_tables(exp_id)
    if write_golden:
        path.write_text(printed)
        return
    assert printed == path.read_text()

