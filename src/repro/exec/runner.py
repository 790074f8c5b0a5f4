"""Deterministic sweep execution through the result cache.

The runner walks an :class:`ExperimentSpec`'s ``seeds x grid`` cells in a
fixed order.  Per cell it first consults the
:class:`~repro.exec.cache.ResultCache`; misses are computed in-process,
after one ``prepare()``, and the results merged back *in grid order*, so
cold and cached runs produce the identical row list (and therefore
identical assembled tables).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cache import ResultCache, cell_key, code_version
from .experiments import ExperimentSpec

__all__ = ["SweepResult", "SweepRunner"]


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
    """Runs a spec's grid in-process, through the cache.

    Parameters
    ----------
    spec:
        The experiment decomposition to execute.
    cache:
        Result cache, or ``None`` to recompute every cell.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        cache: ResultCache | None = None,
    ) -> None:
        self.spec = spec
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
                spec.experiment, spec.grid[gi], spec.seeds[si], version
            )
            keys[i] = key
            cached = self.cache.get(key)
            if cached is None:
                misses.append(i)
            else:
                rows[i] = cached
                hits += 1

        if misses:
            ctx = spec.prepare()
            for i in misses:
                si, gi = tasks[i]
                row = spec.cell(ctx, spec.grid[gi], spec.seeds[si])
                rows[i] = row
                if self.cache is not None and keys[i] is not None:
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
