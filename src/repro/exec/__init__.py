"""Experiment execution (``repro.exec``).

Each experiment is a seed x config grid of independent cells (one
nprobe, one cluster size, one fault rate).  This package runs that grid
in-process: prepare the shared context once, compute every cell in
seed-major grid order, then assemble the tables.

Entry points:

* :func:`run_spec` — runs an :class:`ExperimentSpec` and returns its
  tables; it is the only way an experiment runs;
* :func:`build_spec` / :func:`experiment_ids` — the registry of all 23
  experiments' prepare/cell/assemble specs
  (``repro.exec.experiments``);
* ``python -m repro run <exp>|all`` and ``python -m repro list`` — the
  CLI wiring.

The tables each experiment prints are pinned by the committed goldens
in ``results/golden/``.
"""

from .experiments import ExperimentSpec, build_spec, experiment_ids, run_spec

__all__ = [
    "ExperimentSpec",
    "build_spec",
    "experiment_ids",
    "run_spec",
]
