"""Benchmark entry point: one workload, measured end to end.

From the repository root::

    python3 perfbench/run.py --workload dataplane --seed 1 --seconds 20 --trace 0

Each repeat of the workload runs in a fresh ``python3`` process
(``repeat.py``) with ``src`` on its import path, one BLAS thread, a
fixed hash seed and every ``REPRO_*`` variable cleared.  An untraced
run makes ``SETUPS`` repeats one after another; each sets up
once and then runs rounds of the timed section for its share of
``--seconds``, at least one.  ``setup_s`` and ``peak_rss_mb`` are
medians over the repeats, and ``run_s`` is the sum over the ops of each
op's median time over all rounds; both times are calibrated to a
reference CPU speed (see ``suite.calibrate``).  A traced run
(``--trace 1``) makes one untraced and one traced repeat of one round
each and reports the per-layer metrics, with the tracing overhead
measured against the untraced round.

Every op's output is checked against ``reference.json``; at seeds
other than ``suite.DEFAULT_SEED`` the serving digests are printed
instead, for comparing two commits, and must agree between repeats.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--write-reference`` stores this run's digests as the reference
instead of checking them, for a change that is meant to alter outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import suite

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

# Every run must end well within 180 s.
DEADLINE_S = 165.0
# Fresh processes per untraced run, each of which sets up once; the
# dataplane's setup of about ten seconds allows no more.
SETUPS = 2


def _child_env() -> dict[str, str]:
    # REPRO_SMOKE, REPRO_FAULT_RATE and REPRO_BENCH_SMOKE change what the
    # experiments compute; no REPRO_* setting reaches a repeat.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _repeat(args, seconds: float, trace: int,
            deadline: float) -> dict | None:
    """One repeat in a fresh process; None when it did not finish."""
    command = [
        sys.executable, str(HERE / "repeat.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--trace", str(trace),
    ]
    cal = suite.calibrate() if not trace else None
    started = time.monotonic()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=_child_env(), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("repeat timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"repeat failed ({proc.returncode}):\n{err[-4000:]}",
              file=sys.stderr)
        return None
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result.pop("setup_done") - started
    if cal is not None:
        result["setup_s"] = suite.at_reference_speed(
            result["setup_s"], (cal + result["setup_cal"]) / 2)
    return result


def _check(args, repeats: list[dict | None], reference: dict):
    """Check every op of every round of every repeat.

    Returns the ops attempted, the ops failed and each op's times, as
    measured and as at the reference CPU speed.
    """
    attempted = failed = 0
    seen: dict[str, str] = {}
    times: dict[str, list[float]] = {}
    calibrated: dict[str, list[float]] = {}
    for rep in repeats:
        if rep is None:
            attempted += 1
            failed += 1
            continue
        for op in (op for ops in rep["rounds"] for op in ops):
            attempted += 1
            name = op["op"]
            times.setdefault(name, []).append(op["s"])
            if op["cal"] is not None:
                calibrated.setdefault(name, []).append(
                    suite.at_reference_speed(op["s"], op["cal"]))
            problem = op["error"]
            got = op["digest"]
            if problem is None and got is not None:
                try:
                    want = suite.expected_digest(
                        reference, args.workload, args.seed, name
                    )
                except KeyError:
                    want = "missing"
                if want is None:
                    want = seen.setdefault(name, got)
                if got != want:
                    problem = f"digest {got} != expected {want}"
            if problem is not None:
                failed += 1
                print(f"op {name} failed: {problem}", file=sys.stderr)
    return attempted, failed, times, calibrated


def _digests(rep: dict) -> dict[str, str]:
    """The digests of a repeat's first round."""
    return {op["op"]: op["digest"] for op in rep["rounds"][0]
            if op["digest"] is not None}


def _write_reference(args, digests: dict[str, str]) -> None:
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() \
        else {"tables": {}, "sessions": {}}
    for op, value in digests.items():
        if op.endswith("/assemble"):
            reference["tables"][op.split("/")[0]] = value
        elif args.seed == suite.DEFAULT_SEED:
            reference["sessions"].setdefault(args.workload, {})[op] = value
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def _median(repeats: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in repeats)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=suite.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is not at {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + DEADLINE_S
    repeats: list[dict | None] = []
    if args.trace:
        repeats = [_repeat(args, 0.0, trace, deadline) for trace in (0, 1)]
    while not args.trace and len(repeats) < SETUPS:
        repeats.append(_repeat(args, args.seconds / SETUPS, 0, deadline))
        now = time.monotonic()
        if repeats[-1] is None:
            break
        if now + 1.5 * (now - start) / len(repeats) > deadline:
            break
    done = [r for r in repeats if r is not None]
    if not done:
        print("error: no repeat finished", file=sys.stderr)
        return 1

    if args.write_reference:
        _write_reference(args, _digests(done[0]))
    reference = json.loads(REFERENCE.read_text())
    attempted, failed, times, calibrated = _check(args, repeats, reference)
    if args.seed != suite.DEFAULT_SEED:
        for op, value in sorted(_digests(done[0]).items()):
            print(f"digest {op} {value}")

    if args.trace:
        if len(done) != 2:
            print("error: the traced run needs both repeats", file=sys.stderr)
            return 1
        untraced, traced = repeats
        metrics = dict(traced["layers"])
        offered = untraced["serve"]["offered"]
        untraced_s = untraced["round_s"][0]
        metrics.update({
            "serve.host_us_per_req":
                untraced_s * 1e6 / offered if offered else 0.0,
            "mem.rss_after_setup_mb": untraced["rss_after_setup_mb"],
            "trace.overhead": traced["round_s"][0] / untraced_s - 1.0,
            "error_rate": failed / attempted,
        })
        units = {name: unit for name, unit, _ in suite.per_layer_metrics()}
        assert set(metrics) == set(units), set(metrics) ^ set(units)
    else:
        metrics = {
            "setup_s": _median(done, "setup_s"),
            "run_s": sum(statistics.median(t) for t in calibrated.values()),
            "peak_rss_mb": _median(done, "peak_rss_mb"),
            "op_success_rate": (attempted - failed) / attempted,
        }
        units = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB",
                 "op_success_rate": "ratio"}
        measured = sum(statistics.median(t) for t in times.values())
        print(f"timed section as measured (sum of per-op medians): "
              f"{measured:.4f} s", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
