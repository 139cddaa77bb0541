"""richlab: a desk-scale laboratory for rich representations.

Representations built from several training episodes (concatenation,
snapshots, distillation, two-stage fine-tuning) are compared against
single-episode representations under task and distribution shift, with a
convex linear-probing solver supplying the information measurements.
"""
__version__ = "0.1.0"

from . import cli, core_nn, experiments, probing, richrep, tasks, verify
from .errors import (
    DataError,
    EpisodeError,
    NumericalError,
    ParameterError,
    RichlabError,
    SamplingError,
    ShapeError,
    TrainingError,
)
from .rng import SplitMix64, derive_seed

__all__ = [
    "DataError",
    "EpisodeError",
    "NumericalError",
    "ParameterError",
    "RichlabError",
    "SamplingError",
    "ShapeError",
    "SplitMix64",
    "TrainingError",
    "cli",
    "core_nn",
    "derive_seed",
    "experiments",
    "probing",
    "richrep",
    "tasks",
    "verify",
]
