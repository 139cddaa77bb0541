"""Exception hierarchy shared across the package, and :func:`named`, the
one place where a training failure becomes an :class:`EpisodeError`.

A trainer turns a :class:`NumericalError` into a :class:`TrainingError`
that carries the epoch; each run that holds several episodes wraps them
in :func:`named`, which adds the episode's name and seed to the message.
"""
from __future__ import annotations

import math
import operator
from contextlib import contextmanager


class RichlabError(Exception):
    """Base class for all richlab errors."""


class ShapeError(RichlabError, ValueError):
    """Array dimensions disagree with what an operation requires."""


class ParameterError(RichlabError, ValueError):
    """A configuration value or argument is outside its valid range; ``field``
    is the path of names (one name as a string) of the field refused, if any."""

    def __init__(self, message: str, field: str | tuple = ()):
        self.message, self.field = message, (field,) if isinstance(field, str) else field
        super().__init__(f"{'/'.join(map(str, self.field))}: {message}" if field else message)


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


# each bound of check_bounds: the test a value breaks it by, and the words that say so
_BOUNDS = {"ge": (operator.lt, "less than the minimum"),
           "gt": (operator.le, "less than or equal to the minimum"),
           "le": (operator.gt, "greater than the maximum"),
           "lt": (operator.ge, "greater than or equal to the maximum")}


def check_bounds(field: str | tuple, value, **bounds) -> None:
    """Raise a :class:`ParameterError` on ``field`` unless ``value`` is a finite number
    within ``bounds``, each named as its operator is: ``ge=0`` asks ``value >= 0``."""
    if not isinstance(value, int) and not math.isfinite(value):
        raise ParameterError(f"{value!r} is not a finite number", field)
    for name, bound in bounds.items():
        breaks, words = _BOUNDS[name]
        if breaks(value, bound):
            raise ParameterError(f"{value!r} is {words} of {bound!r}", field)


def check_choice(field: str | tuple, value, choices: tuple) -> None:
    """Raise a :class:`ParameterError` on ``field`` unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise ParameterError(f"{value!r} is not one of {list(choices)!r}", field)


def check_items(field: str, values, **bounds) -> None:
    """Raise a :class:`ParameterError` unless ``values`` holds an item, and each
    item passes :func:`check_bounds` with ``bounds``, if any, as ``field/<index>``."""
    if len(values) == 0:
        raise ParameterError("[] should be non-empty", field)
    for i, value in enumerate(values if bounds else ()):
        check_bounds((field, i), value, **bounds)


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
