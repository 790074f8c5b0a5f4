"""Tests for the benchmark's own code.

From the repository root::

    python3 -m pytest perfbench
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import suite  # noqa: E402
from recorder import Recorder  # noqa: E402


class _Clock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_child_time_is_removed_from_parent_self_time():
    clock = _Clock()
    rec = Recorder(clock=clock)
    rec.phase = "run"
    rec.begin("root", "bench")
    clock.now = 10
    rec.begin("build", "fanns", "fanns.build_s")
    clock.now = 30
    rec.begin("gen", "workloads")
    clock.now = 100
    rec.end()
    clock.now = 104
    rec.end()
    clock.now = 110
    assert rec.end() == 110
    assert rec.layer_ns("run") == {"bench": 16, "fanns": 24, "workloads": 70}
    assert rec.seconds("fanns.build_s") == 94 / 1e9
    ids = {name: span_id for span_id, name, *_ in rec.spans}
    parents = {name: parent for _, name, _, _, parent, _ in rec.spans}
    assert parents == {"gen": ids["build"], "build": ids["root"], "root": -1}


def test_nested_spans_of_one_metric_count_once():
    clock = _Clock()
    rec = Recorder(clock=clock)
    rec.begin("outer", "fanns", "m")
    clock.now = 5
    rec.begin("inner", "fanns", "m")
    clock.now = 9
    rec.end()
    clock.now = 12
    rec.end()
    assert rec.seconds("m") == 12 / 1e9
    assert rec.seconds("m", "run") == 0.0


def test_wrap_counts_calls_and_work_and_closes_on_error():
    rec = Recorder()

    def work(items, fail=False):
        if fail:
            raise ValueError("boom")
        return len(items)

    recorded = rec.wrap(work, "work", "fanns", metric="t", calls="n",
                        count=("items", lambda items, **_: len(items)))
    assert recorded([1, 2, 3]) == 3
    with pytest.raises(ValueError):
        recorded([1], fail=True)
    assert rec.count("n") == 2
    assert rec.count("items") == 4
    assert len(rec.spans) == 2


def test_benchmark_json_matches_the_suite():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(suite.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == suite.per_layer_metrics()


def test_check_calibrates_times_and_compares_rounds():
    import run

    def op(s, cal, digest):
        return {"op": "farview@1x", "s": s, "cal": cal, "error": None,
                "digest": digest}

    args = argparse.Namespace(workload="serve-sparse", seed=7)
    rounds = [[op(0.2, 0.03, "same")], [op(0.1, 0.015, "other")]]
    attempted, failed, times, calibrated = run._check(
        args, [{"rounds": rounds}, None], {"tables": {}, "sessions": {}}
    )
    assert (attempted, failed) == (3, 2)
    assert times == {"farview@1x": [0.2, 0.1]}
    assert calibrated["farview@1x"] == pytest.approx([
        suite.at_reference_speed(0.2, 0.03),
        suite.at_reference_speed(0.1, 0.015),
    ])


def test_install_records_functions_imported_by_name():
    code = "\n".join((
        "import sys, numpy as np, layers, recorder, repro.fanns",
        "ivf, km, pq = (sys.modules[f'repro.fanns.{m}']",
        "               for m in ('ivf', 'kmeans', 'pq'))",
        "rec = recorder.Recorder()",
        "layers.install(rec)",
        "assert pq.kmeans is km.kmeans is ivf.kmeans",
        "assert km.kmeans.__wrapped__.__module__ == 'repro.fanns.kmeans'",
        "km.kmeans(np.random.default_rng(0).random((64, 4)), 4)",
        "assert rec.seconds('fanns.kmeans_init_s') > 0",
        "assert sum(rec.layer_ns('setup').values()) > 0",
    ))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join((str(HERE.parent / "src"),
                                           str(HERE))))
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120)
