"""Smoke tests: the cheaper example scripts run to completion."""

import json
import os
import subprocess
import sys
from pathlib import Path

_EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _run(script: str, timeout: int = 180) -> str:
    result = subprocess.run(
        [sys.executable, str(_EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart_runs():
    out = _run("quickstart.py")
    assert "fits an Alveo U280: True" in out
    assert "dataflow simulation" in out


def test_distributed_collectives_runs():
    out = _run("distributed_collectives.py")
    assert "Allreduce" in out
    assert "winner" in out


def test_storage_offload_runs():
    out = _run("storage_offload.py")
    assert "write amplification" in out
    assert "smart NIC" in out


def test_smart_memory_offload_runs():
    out = _run("smart_memory_offload.py")
    assert "Offload vs fetch-all" in out


def test_stream_analytics_runs():
    out = _run("stream_analytics.py")
    assert "Count-Min: hottest key" in out


def test_recommendation_inference_runs():
    out = _run("recommendation_inference.py")
    assert "MicroRec + Cartesian" in out


def test_cli_info_and_experiments():
    for args in (["info"], ["list"]):
        result = subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0
        assert result.stdout.strip()


def test_cli_rejects_unknown_experiment(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "repro", "run", "e99"],
        capture_output=True, text=True, timeout=60,
        cwd=_EXAMPLES.parent,
    )
    assert result.returncode == 2
    assert "unknown experiment" in result.stderr


def test_cli_trace_runs_outside_the_repository(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(_EXAMPLES.parent / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "repro", "run", "e19", "--trace", "t.json"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env,
    )
    assert result.returncode == 0, result.stderr
    trace = json.loads((tmp_path / "t.json").read_text())
    assert len(trace["traceEvents"]) > 0
