"""Every experiment's tables against its committed golden.

``results/golden/eN.txt`` holds experiment eN's tables exactly as
``python -m repro run eN`` prints them, without the ``[eN] K cells``
summary line.  There is one scale: the goldens are the full-scale
tables the paper's claims are read from.  Each case runs the
experiment through :func:`~repro.exec.run_spec` and compares the
printed tables with that file.  ``pytest --write-golden``
rewrites the files instead; a change that does so must say which
tables moved and why.

The simulator-driven experiments are run a second time with the
analytic fast-forward off: the stepped engine must print the same
goldens, checked one table per case.  (e22 spawns bare client
processes, so there the switch must be a no-op.)
"""

from functools import lru_cache
from pathlib import Path

import pytest

from repro.core.fastpath import set_fast_forward
from repro.exec import build_spec, experiment_ids, run_spec

GOLDEN_DIR = Path(__file__).resolve().parents[2] / "results" / "golden"

# (experiment, table index, case name) for every table of the
# simulator-driven experiments.
_STEPPED_TABLES = (
    ("e1", 0, "pipeline_sweep"),
    ("e1", 1, "timing_ablation"),
    ("e2", 0, "line_rate"),
    ("e3", 0, "aggregate_sweep"),
    ("e3", 1, "projection_crossover"),
    ("e4", 0, "pipelines"),
    ("e22", 0, "fault_tolerance"),
)


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


@lru_cache(maxsize=None)
def _stepped_tables(exp_id: str) -> tuple[str, ...]:
    """Each table as printed with the fast-forward off (one run per id)."""
    set_fast_forward(False)
    try:
        tables = run_spec(build_spec(exp_id))
    finally:
        set_fast_forward(None)
    return tuple(f"\n{table.render()}\n\n" for table in tables)


def _golden_tables(exp_id: str) -> list[str]:
    """The golden split back into its printed tables."""
    text = (GOLDEN_DIR / f"{exp_id}.txt").read_text()
    assert text.startswith("\n") and text.endswith("\n\n")
    return [f"\n{render}\n\n" for render in text[1:-2].split("\n\n\n")]


@pytest.mark.parametrize(
    "exp_id,index",
    [(exp_id, index) for exp_id, index, _ in _STEPPED_TABLES],
    ids=[f"{exp_id}:{name}" for exp_id, _, name in _STEPPED_TABLES],
)
def test_stepped_engine_matches_golden(exp_id, index, write_golden):
    if write_golden:
        pytest.skip("goldens are written from the default configuration")
    stepped = _stepped_tables(exp_id)
    golden = _golden_tables(exp_id)
    assert len(stepped) == len(golden)
    assert stepped[index] == golden[index]
