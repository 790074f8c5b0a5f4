"""The benchmark's workloads, its per-layer metric list and its oracle.

Shared by ``run.py``, which must not import the program, and by
``repeat.py``, which runs it.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

#: The seed whose serving-session digests are stored in the reference.
DEFAULT_SEED = 1

#: What ``calibrate()`` is taken to read at the reference CPU speed.
REFERENCE_CAL_S = 0.015
#: How closely the program's times follow the loop's: measured on a
#: shared 2-core host, in log terms they move about 0.6 times as far.
SENSITIVITY = 0.6
_CAL_LOOPS = 200_000


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now, the best of three.

    The host's CPU speed drifts by a third within tens of seconds, and
    the loop, which does not use the program, drifts with it.
    """
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        x = 0
        for i in range(_CAL_LOOPS):
            x += i * i % 7
        best = min(best, time.perf_counter() - started)
    return best


def at_reference_speed(seconds: float, cal: float) -> float:
    """``seconds`` measured when ``calibrate()`` read ``cal``, scaled to
    the speed at which it reads ``REFERENCE_CAL_S``."""
    return seconds * (REFERENCE_CAL_S / cal) ** SENSITIVITY


# The experiment workloads run with the registry's own seeds, so their
# tables do not depend on --seed and are checked on every run.
DATAPLANE = ("e5", "e8")
SYSTEMS = (
    "e1", "e2", "e3", "e4", "e10", "e11", "e12", "e13", "e14", "e15",
    "e17", "e18", "e19", "e20", "e21", "e22",
)
EXPERIMENTS = DATAPLANE + SYSTEMS


@dataclass(frozen=True)
class Session:
    """One open-loop serving session against one backend."""

    backend: str
    load: float  # offered rate as a multiple of full-batch capacity
    n_requests: int

    @property
    def name(self) -> str:
        return f"{self.backend}@{self.load:g}x"


_BACKENDS = ("farview", "microrec")

# Sessions are sized so that a round of a serving workload takes about
# a second, which gives every session many timed samples in one run.
WORKLOADS: dict[str, tuple] = {
    "dataplane": DATAPLANE,
    "systems": SYSTEMS,
    "serve-sparse": tuple(Session(b, 0.01, 4_000) for b in _BACKENDS),
    "serve-saturated": tuple(
        Session(b, load, 20_000) for b in _BACKENDS for load in (0.7, 1.4)
    ),
}


def is_serving(workload: str) -> bool:
    return isinstance(WORKLOADS[workload][0], Session)


def traffic_seed(seed: int, index: int) -> int:
    """The traffic seed of a workload's ``index``-th session."""
    return seed * 100 + index


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def expected_digest(reference: dict, workload: str, seed: int,
                    op: str) -> str | None:
    """The digest ``op`` must match, or None when it is not checked.

    Experiment tables are checked at every seed; a serving session only
    at ``DEFAULT_SEED``.  Raises ``KeyError`` when a checked op has no
    reference digest.
    """
    if op.endswith("/assemble"):
        return reference["tables"][op.split("/")[0]]
    if seed == DEFAULT_SEED and is_serving(workload):
        return reference["sessions"][workload][op]
    return None


# -- per-layer metrics -------------------------------------------------------

#: Layers charged with self time in the traced run.  ``bench`` is the
#: benchmark's own loop between calls into the program.
LAYERS = (
    "bench", "exec", "workloads", "microrec", "fanns", "core", "serve",
    "relational", "farview", "accl", "kvstore", "lsm", "operators",
    "network",
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """``(name, unit, better)`` of every metric a traced run reports."""
    out = [(f"{layer}.s", "s", "lower") for layer in LAYERS]
    for exp in EXPERIMENTS:
        out += [
            (f"exec.prepare_s.{exp}", "s", "lower"),
            (f"exec.cell_s.{exp}", "s", "lower"),
            (f"exec.cells.{exp}", "count", "lower"),
        ]
    out += [
        ("exec.assemble_s", "s", "lower"),
        ("workloads.gen_s", "s", "lower"),
        ("workloads.gen_calls", "count", "lower"),
        ("microrec.tables_s", "s", "lower"),
        ("microrec.cartesian_s", "s", "lower"),
        ("microrec.cartesian_calls", "count", "lower"),
        ("microrec.accel_init_s", "s", "lower"),
        ("microrec.infer_s", "s", "lower"),
        ("fanns.build_s", "s", "lower"),
        ("fanns.kmeans_init_s", "s", "lower"),
        ("fanns.adc_table_s", "s", "lower"),
        ("fanns.adc_calls", "count", "lower"),
        ("fanns.search_s", "s", "lower"),
        ("fanns.queries", "count", "lower"),
        ("core.sim_run_s", "s", "lower"),
        ("core.sim_runs", "count", "lower"),
        ("core.events_fired", "count", "lower"),
        ("core.host_ns_per_event", "ns", "lower"),
        ("serve.host_us_per_req", "us", "lower"),
        ("serve.events_per_req", "events/req", "lower"),
        ("serve.backend_cost_s", "s", "lower"),
        ("serve.backend_calls", "count", "lower"),
        ("serve.traffic_gen_s", "s", "lower"),
        ("serve.batches", "count", "lower"),
        ("serve.shed_ratio", "ratio", "lower"),
        ("serve.in_slo_ratio", "ratio", "higher"),
        ("kvstore.ops", "count", "lower"),
        ("mem.rss_after_setup_mb", "MiB", "lower"),
        ("trace.run_s", "s", "lower"),
        ("trace.overhead", "ratio", "lower"),
        ("error_rate", "ratio", "lower"),
    ]
    return out
