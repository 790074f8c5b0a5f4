"""The experiment registry: completeness, metadata, and spec hygiene.

The registry is the single index every other layer hangs off — the
CLI (``repro run``/``repro list``), the golden tests, CI's full
sweep.  These tests pin the registry's invariants: one committed
golden per registered experiment and no other, cells returning
cache-safe plain JSON types, and the specs' ``prepare()`` sharing the
context builders.
"""

import ast
import json
from pathlib import Path

import pytest

from repro.exec import build_spec, experiment_ids
from repro.exec.experiments import contexts, register

_GOLDEN_DIR = Path(__file__).resolve().parents[2] / "results" / "golden"
_EXPERIMENTS_DIR = Path(contexts.__file__).parent


def test_every_experiment_has_a_golden_and_every_golden_an_experiment():
    goldens = {path.stem for path in _GOLDEN_DIR.glob("*.txt")}
    assert goldens == set(experiment_ids())


@pytest.mark.parametrize("exp_id", experiment_ids())
def test_spec_metadata_is_sane(exp_id):
    spec = build_spec(exp_id)
    assert spec.experiment == exp_id
    assert spec.title
    assert spec.seeds and spec.grid
    assert spec.cells == len(spec.grid) * len(spec.seeds)
    json.dumps(spec.grid)  # configs must be cache-key material


def test_cells_return_plain_json_types():
    # e12 is the cheapest sweep with numpy-laden internals; the spec's
    # normalisation wrapper must strip them before rows hit the cache.
    spec = build_spec("e12")
    row = spec.cell(spec.prepare(), spec.grid[0], spec.seeds[0])
    roundtripped = json.loads(json.dumps(row))
    assert roundtripped == row


def test_unknown_experiment_is_a_key_error():
    with pytest.raises(KeyError, match="e99"):
        build_spec("e99")


def test_double_registration_is_rejected():
    with pytest.raises(ValueError, match="registered twice"):
        register("e1")(lambda: None)


def test_spec_prepare_uses_the_same_contexts():
    e5_ctx = build_spec("e5").prepare()
    assert e5_ctx["data"] is contexts.fanns_dataset()
    assert e5_ctx["index"] is contexts.fanns_index()
    # e7 and e9 only price: their context is the spec, no tables.
    e7_ctx = build_spec("e7").prepare()
    assert e7_ctx == {"model": contexts.microrec_model()}
    assert e7_ctx["model"] is contexts.microrec_model()
    assert build_spec("e9").prepare() == {"model": contexts.microrec_model()}
    e16_ctx = build_spec("e16").prepare()
    assert e16_ctx["index"] is contexts.fanns_index()


def test_every_experiment_assert_names_its_claim():
    """A broken claim stops ``run all`` with the claim's name, not a
    bare ``AssertionError``."""
    bare = [
        f"{path.name}:{node.lineno}"
        for path in sorted(_EXPERIMENTS_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert) and node.msg is None
    ]
    assert bare == []
