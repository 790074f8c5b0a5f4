"""The experiment registry package: all 23 experiments as specs.

Importing this package registers every experiment family module.  The
public surface is :func:`build_spec` / :func:`experiment_ids` /
:func:`register` plus the shared context builders in
:mod:`.contexts`.
"""

from __future__ import annotations

from .base import ExperimentSpec, build_spec, experiment_ids, register
from .contexts import (
    FANNS_LIST_SCALE,
    fanns_dataset,
    fanns_index,
    fanns_shape,
    microrec_model,
    microrec_tables,
    microrec_trace,
    scale_key,
    small_microrec_model,
    smoke_scale,
)

# Importing the family modules runs their @register decorators.
from . import accl as _accl
from . import core as _core
from . import fanns as _fanns
from . import farview as _farview
from . import faults as _faults
from . import microrec as _microrec
from . import operators as _operators
from . import serving as _serving
from . import storage as _storage

__all__ = [
    "ExperimentSpec",
    "FANNS_LIST_SCALE",
    "build_spec",
    "experiment_ids",
    "fanns_dataset",
    "fanns_index",
    "fanns_shape",
    "microrec_model",
    "microrec_tables",
    "microrec_trace",
    "register",
    "scale_key",
    "small_microrec_model",
    "smoke_scale",
]
