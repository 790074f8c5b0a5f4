"""Operator-study experiments (Resources §): e13 (sketches), e14
(any-precision k-means), e15 (compression offload), e20 (hash joins),
e21 (business-rule matching)."""

from __future__ import annotations

from typing import Any

import numpy as np

from ...bench import ResultTable
from .base import ExperimentSpec, register

# -- E13: sketch operators at line rate -------------------------------------


def e13_cell(ctx: Any, config: dict, seed: int) -> dict:
    if config["part"] == "accuracy":
        from ...operators import CountMinSketch, HyperLogLog
        from ...workloads import ZipfSampler

        rng = np.random.default_rng(7)
        hll_rows = []
        for true_n in (10_000, 1_000_000):
            hll = HyperLogLog(precision=12)
            hll.add(rng.integers(0, 1 << 62, size=true_n))
            est = hll.estimate()
            err = abs(est - true_n) / true_n
            assert err < 4 * hll.relative_error_bound(), (
                "the sketches stay accurate: HLL error < 4x bound"
            )
            hll_rows.append({"true_n": true_n, "est": est, "err": err})
        stream = ZipfSampler(100_000, 1.1, rng).sample(500_000)
        cm = CountMinSketch(width=8192, depth=4)
        cm.add(stream)
        hot = np.arange(5)
        true = np.array([(stream == key).sum() for key in hot])
        est = cm.query(hot)
        cm_rows = []
        for key in range(5):
            rel = (est[key] - true[key]) / max(1, true[key])
            assert est[key] >= true[key], "Count-Min never underestimates"
            assert est[key] - true[key] <= cm.error_bound(), (
                "Count-Min error within its bound"
            )
            cm_rows.append({"key": key, "true": int(true[key]),
                            "est": int(est[key]), "rel": rel})
        return {"part": "accuracy", "hll": hll_rows, "cm": cm_rows}

    from ...baselines import xeon_server
    from ...operators import (
        cpu_insert_time_s,
        cpu_update_time_s,
        hll_kernel_spec,
        sketch_kernel_spec,
    )

    cpu = xeon_server()
    n = 1_000_000_000
    hll_spec = hll_kernel_spec(precision=12)
    fpga_rate = n / hll_spec.latency_seconds(n)
    core_rate = n / cpu_insert_time_s(cpu, n, parallel=False)
    socket_rate = n / cpu_insert_time_s(cpu, n, parallel=True)
    cm_spec = sketch_kernel_spec(counters_per_item=4,
                                 counter_bytes_total=256 * 1024)
    cm_fpga = n / cm_spec.latency_seconds(n)
    cm_core = n / cpu_update_time_s(cpu, n, 4, parallel=False)
    assert fpga_rate > 4 * core_rate, "the HLL kernel beats a core 4x"
    assert cm_fpga > 4 * cm_core, "the Count-Min kernel beats a core 4x"
    return {
        "part": "throughput",
        "fpga_rate": fpga_rate,
        "core_rate": core_rate,
        "socket_rate": socket_rate,
        "cm_fpga": cm_fpga,
        "cm_core": cm_core,
    }


def e13_assemble(rows: list[dict]) -> list[ResultTable]:
    tables: list[ResultTable] = []
    accuracy = [r for r in rows if r["part"] == "accuracy"]
    throughput = [r for r in rows if r["part"] == "throughput"]
    if accuracy:
        report = ResultTable(
            "E13a: sketch accuracy (functional)",
            ("sketch", "workload", "truth", "estimate", "rel err"),
        )
        row = accuracy[0]
        for hll in row["hll"]:
            report.add("HLL p=12", f"{hll['true_n']:,} distinct",
                       hll["true_n"], hll["est"], hll["err"])
        for cm in row["cm"]:
            report.add("CM 8192x4", f"hot key {cm['key']}", cm["true"],
                       cm["est"], cm["rel"])
        tables.append(report)
    if throughput:
        report = ResultTable(
            "E13b: sketch maintenance throughput (1B items)",
            ("engine", "G items/s", "vs 1 CPU core"),
        )
        row = throughput[0]
        report.add("FPGA HLL kernel", row["fpga_rate"] / 1e9,
                   row["fpga_rate"] / row["core_rate"])
        report.add("1 CPU core", row["core_rate"] / 1e9, 1.0)
        report.add("32 CPU cores", row["socket_rate"] / 1e9,
                   row["socket_rate"] / row["core_rate"])
        report.add("FPGA CM kernel", row["cm_fpga"] / 1e9,
                   row["cm_fpga"] / row["cm_core"])
        report.add("1 CPU core (CM)", row["cm_core"] / 1e9, 1.0)
        report.note("FPGA kernels: II=1, 300 MHz, 8-lane (HLL) / "
                    "banked (CM)")
        tables.append(report)
    return tables


@register("e13")
def _e13_spec() -> ExperimentSpec:
    return ExperimentSpec(
        experiment="e13",
        title="sketch operators at line rate",
        grid=({"part": "accuracy"}, {"part": "throughput"}),
        seeds=(7,),
        prepare=lambda: None,
        cell=e13_cell,
        assemble=e13_assemble,
    )


# -- E14: BiS-KM any-precision k-means --------------------------------------

_E14_BITS = (1, 2, 4, 8, 16, 32)


def _e14_blobs(seed=2):
    rng = np.random.default_rng(seed)
    centers = rng.random((8, 16)).astype(np.float32) * 10
    return np.concatenate(
        [c + rng.normal(0, 0.15, (150, 16)).astype(np.float32)
         for c in centers]
    )


def e14_cell(ctx: Any, config: dict, seed: int) -> dict:
    from ...operators import anyprec_kmeans

    points = _e14_blobs()
    out = anyprec_kmeans(points, k=8, bits=config["bits"], seed=3)
    return {
        "bits": config["bits"],
        "inertia": float(out.full_precision_inertia),
        "traffic_speedup": float(out.traffic_speedup),
        "iterations": out.result.n_iterations,
    }


def e14_assemble(rows: list[dict]) -> list[ResultTable]:
    report = ResultTable(
        "E14: any-precision k-means (k=8, 1200 x 16 points)",
        ("bits", "traffic speedup", "objective vs 32-bit", "iterations"),
    )
    by_bits = {row["bits"]: row for row in rows}
    baseline = max(by_bits[32]["inertia"], 1e-12)
    ratios = []
    for row in rows:
        ratio = row["inertia"] / baseline
        ratios.append(ratio)
        report.add(row["bits"], row["traffic_speedup"], ratio,
                   row["iterations"])
    assert abs(ratios[-1] - 1.0) < 1e-6, "the 32-bit objective is the baseline"
    # A handful of bits reaches within 10% of full quality...
    assert min(r for row, r in zip(rows, ratios)
               if row["bits"] >= 8) < 1.1, (
        "a handful of bits already matches full precision"
    )
    # ...while 1-bit data is measurably worse on this geometry.
    assert ratios[0] > ratios[-1], "1-bit data is measurably worse"
    report.note("objective = full-precision inertia of learned centroids")
    return [report]


@register("e14")
def _e14_spec() -> ExperimentSpec:
    return ExperimentSpec(
        experiment="e14",
        title="any-precision k-means (BiS-KM)",
        grid=tuple({"bits": b} for b in _E14_BITS),
        seeds=(3,),
        prepare=lambda: None,
        cell=e14_cell,
        assemble=e14_assemble,
    )


# -- E15: column compression offload (SAP HANA) -----------------------------

_E15_KINDS = ("dict-decode", "dict-encode", "rle-decode", "aes-encrypt")


def e15_cell(ctx: Any, config: dict, seed: int) -> dict:
    if config["part"] == "ratios":
        from ...operators import (
            dict_decode,
            dict_encode,
            rle_decode,
            rle_encode,
        )
        from ...workloads import ZipfSampler, grouped_table

        rng = np.random.default_rng(9)
        low_card = rng.integers(0, 50, size=1_000_000)
        encoded = dict_encode(low_card)
        assert np.array_equal(dict_decode(encoded), low_card), (
            "dictionary decoding round-trips"
        )
        assert encoded.ratio > 6, "dictionary encoding compresses >6x"

        sorted_col = np.sort(ZipfSampler(200, 1.2, rng).sample(1_000_000))
        rle = rle_encode(sorted_col)
        assert np.array_equal(rle_decode(rle), sorted_col), (
            "RLE decoding round-trips"
        )
        rle_ratio = sorted_col.nbytes / rle.nbytes
        assert rle_ratio > 100, "RLE compresses sorted columns >100x"

        grouped = grouped_table(1_000_000, n_groups=1000, seed=1)["group"]
        d = dict_encode(grouped)
        return {
            "part": "ratios",
            "columns": [
                ["50 distinct values", 1_000_000, "dict",
                 float(encoded.ratio)],
                ["sorted Zipf keys", 1_000_000, "rle", float(rle_ratio)],
                ["1000-group fact key", 1_000_000, "dict", float(d.ratio)],
            ],
        }

    from ...baselines import xeon_server
    from ...operators import codec_kernel_spec, cpu_codec_time_s

    cpu = xeon_server()
    n_values = 1 << 28  # 2 GiB of int64 values
    nbytes = n_values * 8
    kind = config["kind"]
    spec = codec_kernel_spec(kind)
    fpga = nbytes / spec.latency_seconds(n_values)
    core = nbytes / cpu_codec_time_s(cpu, nbytes, kind, parallel=False)
    socket = nbytes / cpu_codec_time_s(cpu, nbytes, kind, parallel=True)
    if kind in ("dict-encode", "aes-encrypt"):
        # The compute-heavy directions are what HANA offloads.
        assert fpga > core, f"{kind}: datapath beats a core"
    return {"part": "throughput", "kind": kind, "fpga": fpga,
            "core": core, "socket": socket}


def e15_assemble(rows: list[dict]) -> list[ResultTable]:
    tables: list[ResultTable] = []
    ratios = [r for r in rows if r["part"] == "ratios"]
    throughput = [r for r in rows if r["part"] == "throughput"]
    if ratios:
        report = ResultTable(
            "E15a: compression ratios (functional codecs, exact "
            "round-trip)",
            ("column", "rows", "codec", "ratio"),
        )
        for column, n_rows, codec, ratio in ratios[0]["columns"]:
            report.add(column, n_rows, codec, ratio)
        tables.append(report)
    if throughput:
        report = ResultTable(
            "E15b: codec throughput (GB/s of decoded data)",
            ("codec", "FPGA GB/s", "1 core GB/s", "32 cores GB/s",
             "FPGA vs core"),
        )
        for row in throughput:
            report.add(row["kind"], row["fpga"] / 1e9, row["core"] / 1e9,
                       row["socket"] / 1e9, row["fpga"] / row["core"])
        report.note("FPGA codecs: 512-bit datapath, II=1 per 8 values")
        report.note("decode directions are bandwidth-bound on both sides")
        tables.append(report)
    return tables


@register("e15")
def _e15_spec() -> ExperimentSpec:
    grid = tuple(
        [{"part": "ratios"}]
        + [{"part": "throughput", "kind": k} for k in _E15_KINDS]
    )
    return ExperimentSpec(
        experiment="e15",
        title="compression/encryption offload (HANA)",
        grid=grid,
        seeds=(9,),
        prepare=lambda: None,
        cell=e15_cell,
        assemble=e15_assemble,
    )


# -- E20: hash joins (the CIDR'20 question) ---------------------------------

_E20_N_PROBE = 100_000_000
_E20_BUILDS = (100_000, 1_000_000, 100_000_000)


def e20_prepare() -> None:
    """Functional spot check: the modeled join is a real join."""
    from ...relational import Table, hash_join

    rng = np.random.default_rng(2)
    probe = Table({
        "k": rng.integers(0, 1000, size=50_000).astype(np.int64),
        "p": rng.random(50_000),
    })
    build = Table({
        "k": np.arange(1000, dtype=np.int64),
        "b": rng.integers(0, 100, size=1000).astype(np.int64),
    })
    out = hash_join(probe, build, "k", "k")
    assert out.n_rows == probe.n_rows, (
        "unique build keys cover every probe row"
    )
    assert np.array_equal(out["b"], build["b"][probe["k"]]), (
        "the modeled join is a real join"
    )


def e20_cell(ctx: Any, config: dict, seed: int) -> dict:
    from ...baselines import xeon_server
    from ...relational import FpgaJoinModel, cpu_join_time_s

    cpu = xeon_server()
    model = FpgaJoinModel()
    n_build = config["n_build"]
    timing = model.join_time(_E20_N_PROBE, n_build, 16, 16)
    fpga_rate = (_E20_N_PROBE + n_build) / timing.total_s
    cpu_rate = (_E20_N_PROBE + n_build) / cpu_join_time_s(
        cpu, _E20_N_PROBE, n_build, 16, 16
    )
    return {
        "n_build": n_build,
        "placement": timing.placement,
        "fpga_rate": fpga_rate,
        "cpu_rate": cpu_rate,
    }


def e20_assemble(rows: list[dict]) -> list[ResultTable]:
    from ...relational import FpgaJoinModel

    report = ResultTable(
        "E20: hash join, 100M probes (modeled)",
        ("build rows", "placement", "FPGA M tuples/s", "CPU M tuples/s",
         "FPGA/CPU"),
    )
    ratios = {}
    for row in rows:
        ratios[row["placement"]] = row["fpga_rate"] / row["cpu_rate"]
        report.add(row["n_build"], row["placement"],
                   row["fpga_rate"] / 1e6, row["cpu_rate"] / 1e6,
                   row["fpga_rate"] / row["cpu_rate"])
    # The CIDR verdict: small build sides (BRAM) strongly favor the
    # FPGA; huge standalone joins are contested, not dominated.
    assert ratios.get("bram", 0) > 2, (
        "small build sides (BRAM) favour the FPGA")
    assert 0.2 < ratios.get("hbm", 0) < 5, (
        "huge build sides (HBM) are contested, not dominated")
    streaming = FpgaJoinModel().streaming_probe_rate(100_000, 16)
    report.note("streaming-fused probes additionally ride at line rate "
                f"({streaming / 1e6:.0f} M/s)")
    return [report]


@register("e20")
def _e20_spec() -> ExperimentSpec:
    return ExperimentSpec(
        experiment="e20",
        title="hash joins: the CIDR'20 question",
        grid=tuple({"n_build": n} for n in _E20_BUILDS),
        seeds=(2,),
        prepare=e20_prepare,
        cell=e20_cell,
        assemble=e20_assemble,
    )


# -- E21: business-rule matching (Amadeus) ----------------------------------

_E21_N_ATTRS = 8
_E21_N_QUERIES = 100_000
_E21_RULES = (256, 1024, 4096, 16384)


def e21_prepare() -> None:
    """Functional spot check on a small rule set."""
    from ...operators import random_rules

    rules = random_rules(200, _E21_N_ATTRS, selectivity=0.3,
                         wildcard_fraction=0.3, seed=7)
    rng = np.random.default_rng(8)
    queries = rng.random((500, _E21_N_ATTRS))
    best = rules.best_match(queries)
    match = rules.matches(queries)
    assert ((best >= 0) == match.any(axis=1)).all(), (
        "a best match exists iff some rule matches"
    )


def e21_cell(ctx: Any, config: dict, seed: int) -> dict:
    from ...baselines import xeon_server
    from ...core import ALVEO_U250
    from ...operators import cpu_match_time_s, rules_kernel_spec

    cpu = xeon_server()
    n_rules = config["n_rules"]
    spec = rules_kernel_spec(n_rules, _E21_N_ATTRS)
    fpga_s = spec.latency_seconds(_E21_N_QUERIES)
    cpu_s = cpu_match_time_s(cpu, _E21_N_QUERIES, n_rules, _E21_N_ATTRS)
    return {
        "n_rules": n_rules,
        "fpga_s": fpga_s,
        "cpu_s": cpu_s,
        "lut": spec.resources.lut,
        "fits": bool(ALVEO_U250.fits(spec.resources)),
    }


def e21_assemble(rows: list[dict]) -> list[ResultTable]:
    from ...core import ALVEO_U250
    from ...operators import rules_kernel_spec

    report = ResultTable(
        "E21: rule matching, 100k queries over growing rule sets",
        ("rules", "CPU ms (1 core)", "FPGA ms", "speedup",
         "FPGA LUTs", "fits U250"),
    )
    fpga_times = []
    speedups = []
    for row in rows:
        fpga_times.append(row["fpga_s"])
        speedups.append(row["cpu_s"] / row["fpga_s"])
        report.add(row["n_rules"], row["cpu_s"] * 1e3,
                   row["fpga_s"] * 1e3, row["cpu_s"] / row["fpga_s"],
                   row["lut"], "yes" if row["fits"] else "no")
    # Flat FPGA time, linear CPU time -> speedup grows with rules.
    assert max(fpga_times) < 1.02 * min(fpga_times), (
        "query latency is independent of the rule count"
    )
    assert speedups == sorted(speedups), "speedup grows with the rule count"
    assert speedups[-1] > 50, "FPGA >50x faster at the largest rule set"
    # The fabric eventually caps the rule count.
    assert not ALVEO_U250.fits(
        rules_kernel_spec(300_000, _E21_N_ATTRS).resources
    ), "the fabric's comparator budget caps the rule set"
    report.note("spatial evaluation: latency independent of rule count")
    return [report]


@register("e21")
def _e21_spec() -> ExperimentSpec:
    return ExperimentSpec(
        experiment="e21",
        title="business-rule matching (Amadeus)",
        grid=tuple({"n_rules": n} for n in _E21_RULES),
        seeds=(7,),
        prepare=e21_prepare,
        cell=e21_cell,
        assemble=e21_assemble,
    )
