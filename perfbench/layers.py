"""Where the traced run records spans: the program's layers and the
public functions at their boundaries.

:func:`install` records a span around every exported function and
every public method of every exported class of the packages in
``LAYER_PACKAGES``; the package is the span's layer.  Of ``repro.core``
only the entry points in ``CORE_TARGETS`` are recorded, because the
rest of the engine runs once per simulated event.  Generator functions
are left alone: they are simulated processes, and a span around one
would time only its creation.  Dataclass ``__init__`` methods are left
alone too: they build value records, not work.

A function is replaced in every loaded ``repro`` module that holds it,
so a module that imported it by name (``from .pq import train_pq``)
calls the recorded version as well; a method is replaced on its class.
``NAMED`` attaches the benchmark's named per-layer metrics to some of
the recorded functions.
"""

from __future__ import annotations

import dataclasses
import enum
import importlib
import inspect
import sys
from typing import Any, Callable, Iterator

import suite
from recorder import Recorder

LAYER_PACKAGES = (
    "workloads", "microrec", "fanns", "serve", "relational", "farview",
    "accl", "kvstore", "lsm", "operators", "network",
)

# (module, class or None, attribute)
CORE_TARGETS = (
    ("repro.core.sim", "Simulator", "run"),
    ("repro.core.sim", "Simulator", "run_until_process"),
    ("repro.core.hls", None, "synthesize"),
)


def _queries(self, queries, *args, **kwargs) -> int:
    return len(queries)


_GEN = {"metric": "workloads.gen_s", "calls": "workloads.gen_calls"}
_CARTESIAN = {
    "metric": "microrec.cartesian_s", "calls": "microrec.cartesian_calls",
}
_SIM = {"metric": "core.sim_run_s", "calls": "core.sim_runs"}
_BACKEND = {"metric": "serve.backend_cost_s", "calls": "serve.backend_calls"}
_KV = {"calls": "kvstore.ops"}

#: Recorded function (``module.qualname``) -> ``Recorder.wrap`` options.
NAMED: dict[str, dict[str, Any]] = {
    "repro.workloads.vectors.clustered_dataset": _GEN,
    "repro.workloads.traces.production_like_model": _GEN,
    "repro.workloads.traces.lookup_trace": _GEN,
    "repro.workloads.tables.uniform_table": _GEN,
    "repro.workloads.tables.orders_table": _GEN,
    "repro.workloads.tables.grouped_table": _GEN,
    "repro.microrec.embedding.EmbeddingTables.__init__":
        {"metric": "microrec.tables_s"},
    "repro.microrec.cartesian.CartesianPlan.lookup": _CARTESIAN,
    "repro.microrec.cartesian.CartesianPlan.materialize": _CARTESIAN,
    "repro.microrec.accelerator.MicroRecAccelerator.__init__":
        {"metric": "microrec.accel_init_s"},
    "repro.microrec.accelerator.MicroRecAccelerator.infer":
        {"metric": "microrec.infer_s"},
    "repro.fanns.ivf.build_ivfpq": {"metric": "fanns.build_s"},
    "repro.fanns.kmeans.kmeans_pp_init": {"metric": "fanns.kmeans_init_s"},
    "repro.fanns.pq.ProductQuantizer.adc_table":
        {"metric": "fanns.adc_table_s", "calls": "fanns.adc_calls"},
    "repro.fanns.ivf.IVFPQIndex.search":
        {"metric": "fanns.search_s", "count": ("fanns.queries", _queries)},
    "repro.core.sim.Simulator.run": _SIM,
    "repro.core.sim.Simulator.run_until_process": _SIM,
    "repro.serve.traffic.generate_requests":
        {"metric": "serve.traffic_gen_s"},
    "repro.serve.backend.FannsBackend.batch_service_ps": _BACKEND,
    "repro.serve.backend.MicroRecBackend.batch_service_ps": _BACKEND,
    "repro.serve.backend.FarviewBackend.batch_service_ps": _BACKEND,
    "repro.serve.backend.SyntheticBackend.batch_service_ps": _BACKEND,
    "repro.kvstore.hashtable.HashTable.get": _KV,
    "repro.kvstore.hashtable.HashTable.put": _KV,
    "repro.kvstore.hashtable.HashTable.delete": _KV,
}


def _recordable(fn: Any) -> bool:
    return (
        inspect.isfunction(fn)
        and fn.__module__.startswith("repro.")
        and not inspect.isgeneratorfunction(fn)
    )


def _public_methods(cls: type) -> Iterator[tuple[str, Callable]]:
    if (
        not cls.__module__.startswith("repro.")
        or issubclass(cls, (enum.Enum, BaseException))
        or getattr(cls, "_is_protocol", False)
    ):
        return
    for attr, fn in list(vars(cls).items()):
        if attr == "__init__" and dataclasses.is_dataclass(cls):
            continue
        if (attr == "__init__" or not attr.startswith("_")) and _recordable(fn):
            yield attr, fn


def targets() -> Iterator[tuple[str, type | None, str, Callable]]:
    """``(layer, owning class or None, attribute, function)`` to record."""
    for layer in LAYER_PACKAGES:
        package = importlib.import_module(f"repro.{layer}")
        for export in package.__all__:
            obj = getattr(package, export)
            if inspect.isclass(obj):
                for attr, fn in _public_methods(obj):
                    yield layer, obj, attr, fn
            elif _recordable(obj):
                yield layer, None, export, obj
    for module_name, cls_name, attr in CORE_TARGETS:
        module = importlib.import_module(module_name)
        owner = getattr(module, cls_name) if cls_name else None
        yield "core", owner, attr, getattr(owner or module, attr)


def _replace_everywhere(fn: Callable, recorded: Callable) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, recorded)


def install(rec: Recorder) -> None:
    """Record the calls of every target on ``rec``."""
    seen: set[int] = set()
    named: set[str] = set()
    for layer, owner, attr, fn in targets():
        if id(fn) in seen:
            continue
        name = f"{fn.__module__}.{fn.__qualname__}"
        options = NAMED.get(name, {})
        if options:
            named.add(name)
        recorded = rec.wrap(fn, name, layer, **options)
        seen.update((id(fn), id(recorded)))
        if owner is None:
            _replace_everywhere(fn, recorded)
        else:
            setattr(owner, attr, recorded)
    missing = sorted(set(NAMED) - named)
    if missing:
        raise RuntimeError(f"named functions not found: {missing}")


def install_event_counter():
    """Install a default tracer that counts engine events and keeps no
    trace slices; returns its ``sim.events.fired`` counter."""
    from repro.obs import Tracer, set_default_tracer

    class EventCounter(Tracer):
        def instant(self, *args, **kwargs) -> None:
            pass

        def complete(self, *args, **kwargs) -> None:
            pass

    tracer = EventCounter()
    set_default_tracer(tracer)
    return tracer.registry.counter("sim.events.fired")


_TIMES = (
    "exec.assemble_s", "workloads.gen_s", "microrec.tables_s",
    "microrec.cartesian_s", "microrec.accel_init_s", "microrec.infer_s",
    "fanns.build_s", "fanns.kmeans_init_s", "fanns.adc_table_s",
    "fanns.search_s", "serve.backend_cost_s", "serve.traffic_gen_s",
)
_COUNTS = (
    "workloads.gen_calls", "microrec.cartesian_calls", "fanns.adc_calls",
    "fanns.queries", "serve.backend_calls", "kvstore.ops",
)


def metrics(rec: Recorder, run_ns: int, events: int,
            serve: dict[str, int]) -> dict[str, float]:
    """The per-layer metrics a traced repeat measures itself.

    Time metrics named after a function cover setup and run; layer self
    times (``<layer>.s``) and the engine metrics cover the run only.
    """
    layer_ns = rec.layer_ns("run")
    unknown = set(layer_ns) - set(suite.LAYERS)
    if unknown:
        raise RuntimeError(f"spans in unknown layers: {sorted(unknown)}")
    if sum(layer_ns.values()) != run_ns:
        raise RuntimeError("layer self times do not sum to the traced run")
    out: dict[str, float] = {
        f"{layer}.s": layer_ns.get(layer, 0) / 1e9 for layer in suite.LAYERS
    }
    for exp in suite.EXPERIMENTS:
        out[f"exec.prepare_s.{exp}"] = rec.seconds(f"exec.prepare_s.{exp}")
        out[f"exec.cell_s.{exp}"] = rec.seconds(f"exec.cell_s.{exp}")
        out[f"exec.cells.{exp}"] = rec.count(f"exec.cells.{exp}")
    out.update({name: rec.seconds(name) for name in _TIMES})
    out.update({name: rec.count(name) for name in _COUNTS})
    sim_s = rec.seconds("core.sim_run_s", "run")
    offered = serve["offered"]
    out.update({
        "core.sim_run_s": sim_s,
        "core.sim_runs": rec.count("core.sim_runs", "run"),
        "core.events_fired": events,
        "core.host_ns_per_event": sim_s * 1e9 / events if events else 0.0,
        "serve.events_per_req": events / offered if offered else 0.0,
        "serve.batches": serve["batches"],
        "serve.shed_ratio": serve["shed"] / offered if offered else 0.0,
        "serve.in_slo_ratio": serve["in_slo"] / offered if offered else 0.0,
        "trace.run_s": run_ns / 1e9,
    })
    return out
