"""Sweep execution and result caching (``repro.exec``).

Each experiment is a seed x config grid of independent cells (one
nprobe, one cluster size, one fault rate).  This package runs that grid
in-process in a fixed order, and memoises completed cells in a
content-addressed on-disk cache keyed by
``(experiment, config, seed, code-version)`` so re-runs only pay for
what changed.

Entry points:

* :class:`SweepRunner` — executes an :class:`ExperimentSpec`,
  consulting the :class:`ResultCache` per cell; it is the only way an
  experiment runs;
* :func:`build_spec` / :func:`experiment_ids` — the registry of all 23
  experiments' prepare/cell/assemble specs
  (``repro.exec.experiments``);
* ``python -m repro run <exp>|all`` and ``python -m repro list`` — the
  CLI wiring.

The tables each experiment prints are pinned by the committed goldens
in ``results/golden/``.
"""

from .cache import ResultCache, cell_key, code_version
from .experiments import ExperimentSpec, build_spec, experiment_ids
from .runner import SweepResult, SweepRunner

__all__ = [
    "ExperimentSpec",
    "ResultCache",
    "SweepResult",
    "SweepRunner",
    "build_spec",
    "cell_key",
    "code_version",
    "experiment_ids",
]
