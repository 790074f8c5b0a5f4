"""Command-line entry point: ``python -m repro``.

Subcommands:

* ``info`` — package version and system inventory;
* ``list [--json]`` — the registry dump: per experiment the grid
  size and seeds;
* ``run <id>... | all`` — regenerate experiments (:mod:`repro.exec`):
  every cell is computed in-process and the tables are printed.
* ``serve [--backend B] [--load X]`` — drive one accelerator as an
  online service (:mod:`repro.serve`): open-loop traffic, dynamic
  batching, SLO-aware admission; prints latency percentiles, goodput,
  and shedding for the run.

``run --trace OUT.json`` records the run through the observability
layer: every simulation of the run records into one shared default
tracer, and the collected trace is exported as Chrome ``trace_event``
JSON — open it at https://ui.perfetto.dev or in ``chrome://tracing``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__

_INVENTORY = [
    ("repro.core", "HLS execution model, event engine, devices"),
    ("repro.memory", "BRAM/URAM, HBM2 banking, DDR4, host-over-PCIe"),
    ("repro.network", "100 GbE links, RDMA/TCP stacks, fabrics"),
    ("repro.obs", "metrics, event tracing, per-kernel profiling"),
    ("repro.relational", "columnar engine: CPU + FPGA stream operators"),
    ("repro.farview", "Use Case I: smart disaggregated memory"),
    ("repro.fanns", "Use Case II: vector-search accelerator + generator"),
    ("repro.microrec", "Use Case III: recommendation inference + FleetRec"),
    ("repro.accl", "Use Case IV: collectives for FPGA clusters"),
    ("repro.operators", "HLL / Count-Min / BiS-KM / codecs"),
    ("repro.lsm", "LSM store + compaction offload (X-Engine)"),
    ("repro.kvstore", "smart-NIC key-value store (KV-Direct)"),
    ("repro.faults", "fault injection, timeouts, retry/recovery"),
    ("repro.exec", "experiment registry and runner"),
    ("repro.serve", "online serving: traffic, batching, SLO admission"),
    ("repro.workloads", "synthetic workload generators"),
]


def _cmd_info() -> int:
    print(f"fpgadp {__version__} — Data Processing with FPGAs on Modern "
          "Architectures (SIGMOD-Companion 2023), simulation reproduction")
    print()
    for module, description in _INVENTORY:
        print(f"  {module:<18} {description}")
    return 0


def _registry_rows() -> list[dict]:
    """One dict per registered experiment."""
    from .exec import build_spec, experiment_ids

    rows = []
    for exp_id in experiment_ids():
        spec = build_spec(exp_id)
        rows.append({
            "experiment": exp_id,
            "title": spec.title,
            "grid": len(spec.grid),
            "seeds": list(spec.seeds),
            "cells": spec.cells,
        })
    return rows


def _cmd_list(as_json: bool) -> int:
    rows = _registry_rows()
    if as_json:
        print(json.dumps(rows, indent=2))
        return 0
    print(f"  {'id':<4} {'cells':>5}  {'seeds':<12} title")
    for row in rows:
        seeds = ",".join(str(s) for s in row["seeds"])
        print(f"  {row['experiment']:<4} {row['cells']:>5}  "
              f"{seeds:<12} {row['title']}")
    return 0


def _resolve_ids(ids: list[str]) -> list[str] | None:
    """Lower-cased experiment ids with ``all`` expanded, or ``None``."""
    from .exec import experiment_ids

    known = experiment_ids()
    keys: list[str] = []
    for exp_id in ids:
        key = exp_id.lower()
        if key == "all":
            keys.extend(k for k in known if k not in keys)
            continue
        if key not in known:
            print(f"error: unknown experiment {exp_id!r} "
                  f"(see 'python -m repro list')", file=sys.stderr)
            return None
        if key not in keys:
            keys.append(key)
    return keys


def _cmd_run_sweep(ids: list[str], faults: float | None) -> int:
    """Run and print experiments through :func:`repro.exec.run_spec`."""
    from .exec import build_spec, run_spec
    from .exec.experiments.faults import e22_spec

    for exp_id in ids:
        if exp_id == "e22" and faults is not None:
            # --faults 0 is the fault-free rung itself, not a second one.
            spec = e22_spec(tuple(dict.fromkeys((0.0, faults))))
        else:
            spec = build_spec(exp_id)
        for table in run_spec(spec):
            table.show()
        print(f"[{exp_id}] {spec.cells} cells")
    return 0


def _cmd_run(
    ids: list[str],
    trace: str | None = None,
    faults: float | None = None,
) -> int:
    if faults is not None and not 0.0 <= faults <= 1.0:
        print(f"error: --faults must be in [0, 1], got {faults}",
              file=sys.stderr)
        return 2
    keys = _resolve_ids(ids)
    if keys is None:
        return 2
    if faults is not None and "e22" not in keys:
        print("error: --faults applies only to e22; select e22 or all",
              file=sys.stderr)
        return 2
    if trace is None:
        return _cmd_run_sweep(keys, faults)
    from .obs import Tracer, set_default_tracer

    tracer = Tracer()
    set_default_tracer(tracer)
    try:
        status = _cmd_run_sweep(keys, faults)
    finally:
        set_default_tracer(None)
    tracer.export_chrome(trace)
    print()
    print(tracer.utilisation_summary())
    print(f"trace written to {trace} "
          "(open in chrome://tracing or https://ui.perfetto.dev)")
    return status


def _cmd_serve(args) -> int:
    """Run one online-serving session and print its report."""
    from .exec.experiments.serving import build_backend
    from .serve import (
        AdmissionPolicy,
        AutoscalerPolicy,
        BatchPolicy,
        OpenLoopConfig,
        ServiceConfig,
        capacity_qps,
        simulate_service,
    )

    if args.faults is not None and not 0.0 <= args.faults <= 1.0:
        print(f"error: --faults must be in [0, 1], got {args.faults}",
              file=sys.stderr)
        return 2
    try:
        backend = build_backend(args.backend)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    batch_ps = backend.batch_service_ps(backend.max_batch)
    capacity = capacity_qps(backend, args.replicas)
    offered = args.qps if args.qps is not None else capacity * args.load
    autoscaler = None
    if args.autoscale:
        autoscaler = AutoscalerPolicy(
            min_replicas=1,
            max_replicas=max(4, 2 * args.replicas),
            interval_ps=2 * batch_ps,
        )
    service = ServiceConfig(
        batch=BatchPolicy(max_batch=backend.max_batch,
                          max_wait_ps=max(1, batch_ps // 2)),
        admission=AdmissionPolicy(max_queue=4 * backend.max_batch),
        replicas=args.replicas,
        autoscaler=autoscaler,
    )
    traffic = OpenLoopConfig(
        offered_qps=offered,
        n_requests=args.requests,
        slo_ps=12 * batch_ps,
        burst_factor=args.burst,
    )
    plan = None
    if args.faults:
        from .faults import FaultPlan

        plan = FaultPlan(seed=args.seed, drop_rate=args.faults,
                         spike_rate=args.faults,
                         spike_ps=(batch_ps, 4 * batch_ps))
    report = simulate_service(backend, traffic, service, seed=args.seed,
                              plan=plan)
    row = report.row()
    row["capacity_qps"] = capacity
    row["offered_qps"] = offered
    if args.as_json:
        print(json.dumps(row, indent=2))
        return 0
    print(f"serve: {backend.name} x{args.replicas} replicas "
          f"(max_batch {backend.max_batch})")
    print(f"  offered     {offered:>12,.0f} QPS "
          f"({offered / capacity:.2f}x capacity {capacity:,.0f})")
    print(f"  outcome     {report.completed} completed, "
          f"{report.shed} shed, {report.failed} failed "
          f"of {report.offered} offered")
    print(f"  latency     p50 {report.p50_us:,.1f} us | "
          f"p95 {report.p95_us:,.1f} us | p99 {report.p99_us:,.1f} us")
    print(f"  goodput     {report.goodput_qps:,.0f} QPS in SLO "
          f"({report.in_slo}/{report.offered} requests)")
    print(f"  batching    {report.batches} batches, "
          f"mean size {report.mean_batch:.2f}")
    if report.shed_by_reason:
        reasons = ", ".join(f"{k}={v}"
                            for k, v in sorted(report.shed_by_reason.items()))
        print(f"  shedding    {reasons}")
    if args.autoscale:
        peak = max((r for _, _, r in report.autoscale_decisions),
                   default=args.replicas)
        print(f"  autoscale   final {report.replicas_final} replicas "
              f"(peak {peak}, {len(report.autoscale_decisions)} samples)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="fpgadp reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("info", help="version and system inventory")
    lst = sub.add_parser(
        "list", help="registry dump: grid sizes and seeds"
    )
    lst.add_argument("--json", action="store_true", dest="as_json",
                     help="emit the registry as JSON")
    run = sub.add_parser("run", help="regenerate experiments by id")
    run.add_argument(
        "ids", nargs="+",
        help="experiment ids, e.g. e3 e7 — or 'all' for every one",
    )
    run.add_argument(
        "--trace", metavar="OUT.json", default=None,
        help="record the run through repro.obs and export a Chrome "
             "trace_event JSON file",
    )
    run.add_argument(
        "--faults", metavar="RATE", type=float, default=None,
        help="inject faults at this rate (0..1) in the fault-aware "
             "experiment e22 (the selection must include it), e.g. "
             "--faults 0.01",
    )
    serve = sub.add_parser(
        "serve",
        help="drive one backend as an online service under load",
    )
    serve.add_argument(
        "--backend", default="synthetic",
        choices=("synthetic", "fanns", "microrec", "farview"),
        help="which accelerator to serve (default: synthetic)",
    )
    serve.add_argument(
        "--load", metavar="X", type=float, default=1.0,
        help="offered load as a multiple of capacity (default: 1.0)",
    )
    serve.add_argument(
        "--qps", metavar="F", type=float, default=None,
        help="absolute offered rate; overrides --load",
    )
    serve.add_argument(
        "--requests", metavar="N", type=int, default=2_000,
        help="requests in the open-loop schedule (default: 2000)",
    )
    serve.add_argument(
        "--replicas", metavar="N", type=int, default=2,
        help="accelerator replicas behind the batcher (default: 2)",
    )
    serve.add_argument(
        "--burst", metavar="F", type=float, default=1.0,
        help="burstiness factor; 1.0 = pure Poisson (default: 1.0)",
    )
    serve.add_argument(
        "--seed", metavar="N", type=int, default=0,
        help="traffic/fault schedule seed (default: 0)",
    )
    serve.add_argument(
        "--faults", metavar="RATE", type=float, default=None,
        help="inject batch drops and latency spikes at this rate (0..1)",
    )
    serve.add_argument(
        "--autoscale", action="store_true",
        help="enable the queue-pressure replica autoscaler",
    )
    serve.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the report as JSON")
    args = parser.parse_args(argv)
    if args.command == "info":
        return _cmd_info()
    if args.command == "list":
        return _cmd_list(args.as_json)
    if args.command == "run":
        return _cmd_run(args.ids, trace=args.trace, faults=args.faults)
    if args.command == "serve":
        return _cmd_serve(args)
    parser.print_help()
    return 0


if __name__ == "__main__":
    try:
        status = main()
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: not an error.  Point
        # stdout at devnull so the interpreter's exit flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 0
    raise SystemExit(status)
