#!/usr/bin/env python3
"""Quickstart: the FPGA execution model in five minutes.

This walks the tutorial's *Programming* section: describe a loop,
apply HLS pragmas, see how pipelining and unrolling trade resources for
throughput against temporal (CPU-style) execution — then time the same
kernel as a dataflow pipeline fed through bounded FIFOs.

Run:  python examples/quickstart.py
"""

from repro.bench import ResultTable
from repro.core import (
    ALVEO_U280,
    Burst,
    BurstKernel,
    LoopNest,
    Pragmas,
    run_pipeline,
    synthesize,
)


def main() -> None:
    # A simple data-processing loop: read two values, multiply-add,
    # write one — think "apply a price * (1 - discount) projection".
    loop = LoopNest(
        name="price-calc",
        trip_count=1_000_000,
        ops={"mem_read": 2, "mul": 1, "add": 1, "mem_write": 1},
    )

    table = ResultTable(
        "Pragmas turn a temporal loop into a spatial pipeline",
        ("variant", "II", "depth", "cycles for 1M items", "LUTs", "DSPs"),
    )
    variants = [
        ("no pragma (temporal)", Pragmas(pipeline=False)),
        ("pipeline II=1", Pragmas(pipeline=True, pipeline_ii=1)),
        ("pipeline + unroll 4", Pragmas(pipeline=True, unroll=4)),
        ("pipeline + unroll 16", Pragmas(pipeline=True, unroll=16)),
    ]
    for label, pragmas in variants:
        spec = synthesize(loop, pragmas)
        table.add(
            label,
            spec.ii,
            spec.depth,
            spec.latency_cycles(loop.trip_count),
            spec.resources.lut,
            spec.resources.dsp,
        )
    table.note(
        "sequential (CPU-style) execution: "
        f"{loop.trip_count * loop.iteration_latency():,} cycles"
    )
    table.show()

    # The same kernel as a dataflow pipeline: source -> kernel -> sink
    # over two depth-4 FIFOs.
    spec = synthesize(loop, Pragmas(pipeline=True, unroll=4))
    items = [Burst(payload=None, count=250_000) for _ in range(4)]
    result = run_pipeline(items, [BurstKernel(spec, lambda burst: burst)],
                          depths=(4, 4))
    seconds = result.done_at_ps / 1e12
    n = result.items_received
    print(f"dataflow simulation: {n:,} items in {seconds * 1e3:.3f} ms "
          f"({n / seconds / 1e6:.0f} M items/s)")

    # And the resource check a real deployment would run.
    demand = spec.resources
    report = ALVEO_U280.utilization_report(demand)
    print(f"fits an Alveo U280: {ALVEO_U280.fits(demand)} "
          f"(LUT {report['lut']:.2%}, DSP {report['dsp']:.2%})")


if __name__ == "__main__":
    main()
