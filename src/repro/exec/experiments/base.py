"""The experiment registry: one declarative spec per experiment.

Every experiment is factored into three phases, which :func:`run_spec`
runs in order:

* ``prepare()`` — build the (deterministic, seeded) shared context:
  datasets, indexes, clusters, baselines.  Runs once per run of the
  experiment.
* ``cell(ctx, config, seed)`` — one grid point, returning a dict (one
  row).  Cells are independent of each other.  Single-cell experiments
  have a one-entry grid.
* ``assemble(rows)`` — fold the cell dicts (in grid order) back into
  the experiment's :class:`~repro.bench.ResultTable` list, including
  the experiment's shape-claim assertions.

:func:`run_spec` is the one executor of a spec, and the committed
goldens in ``results/golden/`` are the one check of the tables it
assembles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ...bench import ResultTable

__all__ = [
    "ExperimentSpec",
    "build_spec",
    "experiment_ids",
    "register",
    "run_spec",
]

# Experiment id -> spec factory.
_FACTORIES: dict[str, Callable[[], "ExperimentSpec"]] = {}


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: its grid, phase callables, and registry metadata.

    Attributes
    ----------
    experiment:
        Registry id (``"e5"``).
    title:
        One-line description, shown by ``repro list``.
    grid:
        Config dicts, one per cell.  Single-cell experiments use a
        one-entry grid (often ``({},)``).
    seeds:
        Seeds swept seed-major over the grid.
    prepare / cell / assemble:
        The three phases (see module docstring).
    """

    experiment: str
    title: str
    grid: tuple[dict, ...]
    seeds: tuple[int, ...]
    prepare: Callable[[], Any]
    cell: Callable[[Any, dict, int], dict]
    assemble: Callable[[list[dict]], list[ResultTable]]

    @property
    def cells(self) -> int:
        """Total cell count (``seeds x grid``)."""
        return len(self.grid) * len(self.seeds)


def register(
    experiment: str,
) -> Callable[[Callable[[], ExperimentSpec]], Callable[[], ExperimentSpec]]:
    """Decorator: record a spec factory under an experiment id."""

    def deco(factory: Callable[[], ExperimentSpec]):
        if experiment in _FACTORIES:
            raise ValueError(f"experiment {experiment!r} registered twice")
        _FACTORIES[experiment] = factory
        return factory

    return deco


def experiment_ids() -> tuple[str, ...]:
    """All registered experiment ids, in numeric order."""
    return tuple(sorted(_FACTORIES, key=lambda e: int(e[1:])))


def build_spec(experiment: str) -> ExperimentSpec:
    """The :class:`ExperimentSpec` for an experiment id (fresh build)."""
    try:
        factory = _FACTORIES[experiment.lower()]
    except KeyError:
        known = ", ".join(experiment_ids())
        raise KeyError(
            f"unknown experiment {experiment!r} (registered: {known})"
        ) from None
    spec = factory()
    assert spec.experiment == experiment.lower(), (
        f"factory for {experiment!r} built spec {spec.experiment!r}"
    )
    return spec


def run_spec(spec: ExperimentSpec) -> list[ResultTable]:
    """Prepare once, compute every cell seed-major, assemble the tables."""
    ctx = spec.prepare()
    rows = [
        spec.cell(ctx, config, seed)
        for seed in spec.seeds
        for config in spec.grid
    ]
    return spec.assemble(rows)
