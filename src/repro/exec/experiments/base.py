"""The experiment registry: one declarative spec per experiment.

Every experiment is factored into the three phases the sweep runner
schedules independently:

* ``prepare()`` — build the (deterministic, seeded) shared context:
  datasets, indexes, clusters, baselines.  Runs once per sweep that
  computes a cell; never cached, never serialised.
* ``cell(ctx, config, seed)`` — one grid point, returning a plain
  JSON-able dict.  Cells are independent, so they cache freely.
  Single-cell experiments have a one-entry grid.
* ``assemble(rows)`` — fold the cell dicts (in grid order) back into
  the experiment's :class:`~repro.bench.ResultTable` list, including
  the experiment's shape-claim assertions.

:class:`~repro.exec.SweepRunner` is the one executor of a spec, and
the committed goldens in ``results/golden/`` are the one check of the
tables it assembles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ...bench import ResultTable
from ..cache import _jsonable

__all__ = [
    "ExperimentSpec",
    "build_spec",
    "experiment_ids",
    "register",
]

# Experiment id -> spec factory.  Factories are re-invoked per
# build_spec() call so REPRO_FAULT_RATE is honoured at invocation time.
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
        The three phases (see module docstring).  ``cell`` is wrapped
        at construction so its return value is normalised to plain
        JSON types — the in-process row and the cache-roundtripped row
        are therefore always identical.
    """

    experiment: str
    title: str
    grid: tuple[dict, ...]
    seeds: tuple[int, ...]
    prepare: Callable[[], Any]
    cell: Callable[[Any, dict, int], dict]
    assemble: Callable[[list[dict]], list[ResultTable]]

    def __post_init__(self) -> None:
        raw_cell = self.cell

        def normalised(ctx: Any, config: dict, seed: int) -> dict:
            return _jsonable(raw_cell(ctx, config, seed))

        object.__setattr__(self, "cell", normalised)

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
