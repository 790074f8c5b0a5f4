"""The experiment registry: completeness, metadata, and spec hygiene.

The registry is the single index every other layer hangs off — the
CLI (``repro run``/``repro list``), the golden tests, CI's smoke
sweep.  These tests pin the registry's invariants: one committed
golden per registered experiment and no other, cells returning
cache-safe plain JSON types, the specs' ``prepare()`` sharing the
context builders, and the smoke/full dataset scale reflected in the
cache identity.
"""

import json
from pathlib import Path

import pytest

from repro.exec import build_spec, experiment_ids
from repro.exec.experiments import contexts, register
from repro.exec.experiments.contexts import scale_key

_GOLDEN_DIR = Path(__file__).resolve().parents[2] / "results" / "golden"


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


def test_context_key_tracks_dataset_scale(monkeypatch):
    monkeypatch.delenv("REPRO_SMOKE", raising=False)
    assert scale_key() == {"scale": "full"}
    assert build_spec("e5").context_key == {"scale": "full"}
    monkeypatch.setenv("REPRO_SMOKE", "1")
    assert scale_key() == {"scale": "smoke"}
    assert build_spec("e5").context_key == {"scale": "smoke"}


def test_unknown_experiment_is_a_key_error():
    with pytest.raises(KeyError, match="e99"):
        build_spec("e99")


def test_double_registration_is_rejected():
    with pytest.raises(ValueError, match="registered twice"):
        register("e1")(lambda: None)


def test_spec_prepare_uses_the_same_contexts(monkeypatch):
    monkeypatch.setenv("REPRO_SMOKE", "1")
    e5_ctx = build_spec("e5").prepare()
    assert e5_ctx["data"] is contexts.fanns_dataset()
    assert e5_ctx["index"] is contexts.fanns_index()
    e7_ctx = build_spec("e7").prepare()
    assert e7_ctx["model"] is contexts.microrec_model()
    assert e7_ctx["tables"] is contexts.microrec_tables()
    # e9 only prices lookups: its context is the spec, no tables.
    assert build_spec("e9").prepare() == {"model": contexts.microrec_model()}
    e16_ctx = build_spec("e16").prepare()
    assert e16_ctx["index"] is contexts.fanns_index()


def test_smoke_and_full_scales_are_distinct_cache_contexts(monkeypatch):
    monkeypatch.delenv("REPRO_SMOKE", raising=False)
    full = contexts.fanns_dataset()
    monkeypatch.setenv("REPRO_SMOKE", "1")
    smoke = contexts.fanns_dataset()
    assert smoke is not full
    assert len(smoke.base) < len(full.base)
