"""Exception hierarchy shared across the package, and :func:`named`, the
one place where a training failure becomes an :class:`EpisodeError`.

A trainer turns a :class:`NumericalError` into a :class:`TrainingError`
that carries the epoch; each run that holds several episodes wraps them
in :func:`named`, which adds the episode's name and seed to the message.
"""
from __future__ import annotations

from contextlib import contextmanager


class RichlabError(Exception):
    """Base class for all richlab errors."""


class ShapeError(RichlabError, ValueError):
    """Array dimensions disagree with what an operation requires."""


class ParameterError(RichlabError, ValueError):
    """A configuration value or argument is outside its valid range."""


class DataError(RichlabError, ValueError):
    """Input data violates a contract (bad labels, non-finite values)."""


class NumericalError(RichlabError, FloatingPointError):
    """A computation left its numerical domain (zero norms, non-finite grads)."""


class TrainingError(RichlabError, RuntimeError):
    """Training diverged; carries the epoch where it happened."""

    def __init__(self, message: str, epoch: int | None = None):
        super().__init__(message)
        self.epoch = epoch


class EpisodeError(TrainingError):
    """One episode of a multi-episode run failed; carries the episode seed."""

    def __init__(self, message: str, seed: int | None = None, epoch: int | None = None):
        super().__init__(message, epoch=epoch)
        self.seed = seed


class SamplingError(RichlabError, ValueError):
    """An episode sampler cannot satisfy its class/row requirements."""


@contextmanager
def named(prefix: str, seed: int | None = None):
    """A :class:`NumericalError` or :class:`TrainingError` in this block becomes
    an :class:`EpisodeError` whose message is ``prefix`` and the failure's, with
    ``seed`` and the failure's epoch; any other exception passes through."""
    try:
        yield
    except (NumericalError, TrainingError) as exc:
        raise EpisodeError(f"{prefix}{exc}", seed=seed,
                           epoch=getattr(exc, "epoch", None)) from exc
