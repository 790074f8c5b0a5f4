"""One repeat of a benchmark workload, run in a fresh process.

``run.py`` starts this script once per repeat, so ``lru_cache``d
contexts and the peak-RSS high-water mark never carry over from one
repeat to the next.  A repeat imports the program and builds every
context its workload needs (setup), then runs rounds of the timed
section for ``--seconds``, at least one, timing every op of every
round.  It prints one JSON object as the last line of its
standard output.  With ``--trace 1`` it runs one round, records spans
around the calls into each layer (see ``layers.py``), writes them to
``perfbench/out/`` and adds the traced per-layer metrics.

From the repository root::

    PYTHONPATH=src python3 perfbench/repeat.py --workload systems --seed 1 --seconds 0 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import time
import traceback
from pathlib import Path

import suite

OUT = Path(__file__).resolve().parent / "out"

# e24's serving policies (repro.exec.experiments.serving.e24_cell).
_REPLICAS = 2
_SLO_BATCHES = 12
_WAIT_FRACTION = 2
_BURST = 2.0

# Longest stretch of ops between two calibrations (see suite.calibrate).
_STRETCH_S = 1.0


def _rss_mb() -> float:
    """Resident set size of this process now, in MiB."""
    with open("/proc/self/statm", encoding="ascii") as fp:
        pages = int(fp.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _digest(op: str, output) -> str:
    if op.endswith("/assemble"):
        text = "\n\n".join(table.render() for table in output)
    else:
        text = json.dumps(output, sort_keys=True)
    return suite.digest(text)


def _session_config(backend, session: suite.Session):
    from repro.serve import (
        AdmissionPolicy,
        BatchPolicy,
        OpenLoopConfig,
        ServiceConfig,
        capacity_qps,
    )

    batch_ps = backend.batch_service_ps(backend.max_batch)
    service = ServiceConfig(
        batch=BatchPolicy(
            max_batch=backend.max_batch,
            max_wait_ps=max(1, batch_ps // _WAIT_FRACTION),
        ),
        admission=AdmissionPolicy(max_queue=4 * backend.max_batch),
        replicas=_REPLICAS,
    )
    traffic = OpenLoopConfig(
        offered_qps=session.load * capacity_qps(backend, _REPLICAS),
        n_requests=session.n_requests,
        slo_ps=_SLO_BATCHES * batch_ps,
        burst_factor=_BURST,
    )
    return traffic, service


class Repeat:
    """The ops of one round, with their outcomes, times and digests.

    An untraced repeat calibrates the CPU speed between stretches of ops
    (outside the ops' times) and gives each op of a stretch the mean of
    the readings before and after it as ``cal``.
    """

    def __init__(self, workload: str, seed: int, rec=None) -> None:
        self.workload = workload
        self.seed = seed
        self.rec = rec
        self.ops: list[dict] = []
        self.stretch: list[dict] = []
        self.serve = {"offered": 0, "batches": 0, "shed": 0, "in_slo": 0}

    def begin_round(self) -> None:
        self.ops, self.stretch = [], []
        if self.rec is None:
            self.cal = suite.calibrate()
            self.stretch_start = time.perf_counter()

    def end_stretch(self) -> None:
        if self.rec is None and self.stretch:
            cal = suite.calibrate()
            for op in self.stretch:
                op["cal"] = (self.cal + cal) / 2
            self.cal = cal
            self.stretch_start = time.perf_counter()
        self.stretch = []

    def _span(self, name: str, metric: str | None = None):
        if self.rec is None:
            return contextlib.nullcontext()
        return self.rec.span(name, "exec", metric)

    def _start(self, op: str) -> float:
        if self.rec is not None:
            self.rec.op = op
        return time.perf_counter()

    def _record(self, op: str, started: float, failure: str | None,
                output=None) -> None:
        seconds = time.perf_counter() - started
        self.ops.append({
            "op": op,
            "s": seconds,
            "cal": None,
            "error": failure,
            "digest": None if output is None else _digest(op, output),
        })
        self.stretch.append(self.ops[-1])
        if (self.rec is None
                and time.perf_counter() - self.stretch_start >= _STRETCH_S):
            self.end_stretch()

    # -- experiment workloads ------------------------------------------------

    def setup_experiments(self) -> None:
        from repro.exec import build_spec

        self.prepared = []
        for exp in suite.WORKLOADS[self.workload]:
            with self._span(f"exec.prepare.{exp}", f"exec.prepare_s.{exp}"):
                spec = build_spec(exp)
                self.prepared.append((exp, spec, spec.prepare()))

    def run_experiments(self) -> None:
        for exp, spec, ctx in self.prepared:
            cells = [(s, c) for s in spec.seeds for c in spec.grid]
            rows = []
            for i, (seed, config) in enumerate(cells):
                op = f"{exp}/cell{i}"
                started = self._start(op)
                if self.rec is not None:
                    self.rec.add(f"exec.cells.{exp}")
                failure = None
                with self._span(f"exec.cell.{exp}", f"exec.cell_s.{exp}"):
                    try:
                        rows.append(spec.cell(ctx, config, seed))
                    except Exception:
                        failure = traceback.format_exc()
                self._record(op, started, failure)
            op = f"{exp}/assemble"
            started = self._start(op)
            failure, tables = None, None
            with self._span(f"exec.assemble.{exp}", "exec.assemble_s"):
                try:
                    if len(rows) != len(cells):
                        raise RuntimeError("not assembled: a cell failed")
                    tables = spec.assemble(rows)
                except Exception:
                    failure = traceback.format_exc()
            self._record(op, started, failure, tables)

    # -- serving workloads ---------------------------------------------------

    def setup_serving(self) -> None:
        from repro.exec.experiments.serving import build_backend

        self.backends = {}
        for session in suite.WORKLOADS[self.workload]:
            if session.backend not in self.backends:
                with self._span(f"exec.build_backend.{session.backend}"):
                    self.backends[session.backend] = build_backend(
                        session.backend
                    )

    def run_serving(self) -> None:
        from repro.serve import simulate_service

        self.serve = dict.fromkeys(self.serve, 0)
        for index, session in enumerate(suite.WORKLOADS[self.workload]):
            op = session.name
            started = self._start(op)
            failure, row = None, None
            try:
                backend = self.backends[session.backend]
                traffic, service = _session_config(backend, session)
                report = simulate_service(
                    backend, traffic, service,
                    seed=suite.traffic_seed(self.seed, index),
                )
                row = report.row()
                if (row["completed"] + row["shed"] + row["failed"]
                        != row["offered"]):
                    raise AssertionError(f"accounting identity broken: {row}")
            except Exception:
                failure = traceback.format_exc()
            self._record(op, started, failure, row)
            if row is not None:
                for key in self.serve:
                    self.serve[key] += row[key]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=suite.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    rec = None
    if args.trace:
        from recorder import Recorder

        rec = Recorder()
        rec.begin("bench.setup", "bench")
    rep = Repeat(args.workload, args.seed, rec)
    serving = suite.is_serving(args.workload)

    import repro.exec  # noqa: F401  (imports are part of setup)
    import repro.serve  # noqa: F401

    if rec is not None:
        import layers

        layers.install(rec)
        events = layers.install_event_counter()
    if serving:
        rep.setup_serving()
    else:
        rep.setup_experiments()
    setup_done = time.monotonic()
    rss_after_setup = _rss_mb()
    setup_cal = suite.calibrate() if rec is None else None
    if rec is not None:
        rec.end()
        rec.phase = "run"
        events_before = events.value
        rec.begin("bench.run", "bench")

    rounds = []
    first = time.perf_counter()
    while True:
        rep.begin_round()
        if serving:
            rep.run_serving()
        else:
            rep.run_experiments()
        rep.end_stretch()
        rounds.append(rep.ops)
        # Start no round that would likely end after --seconds.
        elapsed = time.perf_counter() - first
        if rec is not None or elapsed * (1 + 1 / len(rounds)) > args.seconds:
            break

    result = {
        "setup_done": setup_done,
        "setup_cal": setup_cal,
        "round_s": [sum(op["s"] for op in ops) for ops in rounds],
        "peak_rss_mb": _peak_rss_mb(),
        "rss_after_setup_mb": rss_after_setup,
        "serve": rep.serve,
        "rounds": rounds,
    }
    if rec is not None:
        run_ns = rec.end()
        rec.op = None
        result["layers"] = layers.metrics(
            rec, run_ns, events.value - events_before, rep.serve
        )
        rec.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
