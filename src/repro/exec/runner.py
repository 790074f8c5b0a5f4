"""Deterministic sweep execution over a process pool.

The runner walks an :class:`ExperimentSpec`'s ``seeds x grid`` cells in a
fixed order.  Per cell it first consults the
:class:`~repro.exec.cache.ResultCache`; misses are computed — serially
in-process, or fanned out over a ``multiprocessing`` pool — and the
results merged back *in grid order*, so serial, parallel, and cached
runs all produce the identical row list (and therefore identical
assembled tables).

Workers never receive pickled callables: the pool initializer imports
the spec by experiment id and runs ``prepare()`` once per worker, and
each task is just a ``(seed_index, grid_index)`` pair.  The ``fork``
start method is preferred (cheap, inherits the warm import state);
``spawn`` works too since everything workers need is importable.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import Any

from .cache import ResultCache, cell_key, code_version
from .experiments import ExperimentSpec, build_spec

__all__ = ["SweepResult", "SweepRunner"]

# Per-worker state, populated by _init_worker after fork/spawn.
_WORKER_SPEC: ExperimentSpec | None = None
_WORKER_CTX: Any = None


def _init_worker(experiment: str) -> None:
    global _WORKER_SPEC, _WORKER_CTX
    _WORKER_SPEC = build_spec(experiment)
    _WORKER_CTX = _WORKER_SPEC.prepare()


def _run_cell(task: tuple[int, int]) -> dict:
    seed_index, grid_index = task
    spec = _WORKER_SPEC
    assert spec is not None, "worker used before _init_worker ran"
    seed = spec.seeds[seed_index]
    config = spec.grid[grid_index]
    return spec.cell(_WORKER_CTX, config, seed)


@dataclass
class SweepResult:
    """Outcome of one sweep: ordered rows plus cache accounting."""

    experiment: str
    rows: list[dict]
    hits: int = 0
    computed: int = 0
    tables: list = field(default_factory=list)

    @property
    def cells(self) -> int:
        return len(self.rows)


class SweepRunner:
    """Runs a spec's grid, optionally in parallel, through the cache.

    Parameters
    ----------
    spec:
        The experiment decomposition to execute.
    parallel:
        Worker process count; ``1`` (default) runs in-process.
    cache:
        Result cache, or ``None`` to recompute every cell.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        parallel: int = 1,
        cache: ResultCache | None = None,
    ) -> None:
        if parallel < 1:
            raise ValueError(f"parallel must be >= 1, got {parallel}")
        self.spec = spec
        self.parallel = parallel
        self.cache = cache

    def run(self) -> SweepResult:
        """Execute the full grid and assemble the experiment's tables."""
        spec = self.spec
        version = code_version()
        tasks = [
            (si, gi)
            for si in range(len(spec.seeds))
            for gi in range(len(spec.grid))
        ]

        rows: list[dict | None] = [None] * len(tasks)
        keys: list[str | None] = [None] * len(tasks)
        misses: list[int] = []
        hits = 0
        for i, (si, gi) in enumerate(tasks):
            if self.cache is None:
                misses.append(i)
                continue
            key = cell_key(
                spec.experiment, spec.grid[gi], spec.seeds[si], version,
                context=spec.context_key,
            )
            keys[i] = key
            cached = self.cache.get(key)
            if cached is None:
                misses.append(i)
            else:
                rows[i] = cached
                hits += 1

        if misses:
            computed = self._compute([tasks[i] for i in misses])
            for i, row in zip(misses, computed):
                rows[i] = row
                if self.cache is not None and keys[i] is not None:
                    si, gi = tasks[i]
                    self.cache.put(
                        keys[i],
                        row,
                        experiment=spec.experiment,
                        config=spec.grid[gi],
                        seed=spec.seeds[si],
                    )

        assert all(row is not None for row in rows)
        result = SweepResult(
            experiment=spec.experiment,
            rows=list(rows),
            hits=hits,
            computed=len(misses),
        )
        result.tables = spec.assemble(result.rows)
        return result

    def _compute(self, tasks: list[tuple[int, int]]) -> list[dict]:
        spec = self.spec
        if self.parallel == 1 or len(tasks) == 1:
            ctx = spec.prepare()
            return [
                spec.cell(ctx, spec.grid[gi], spec.seeds[si])
                for si, gi in tasks
            ]
        try:
            mp_ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            mp_ctx = multiprocessing.get_context("spawn")
        n_workers = min(self.parallel, len(tasks))
        with mp_ctx.Pool(
            processes=n_workers,
            initializer=_init_worker,
            initargs=(spec.experiment,),
        ) as pool:
            # map() preserves task order, so parallel == serial row order.
            return pool.map(_run_cell, tasks)
