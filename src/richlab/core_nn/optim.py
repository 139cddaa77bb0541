"""SGD with momentum, L2 weight decay, and learning-rate schedules.

The update rule is ``v <- momentum*v + (g + wd*w); w <- w - lr*v`` with
weight decay applied to weight matrices (and cosine-head directions)
only, never to biases or cosine gains.  :func:`sgd_fit` is the one
mini-batch loop every trainer runs through.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from ..errors import NumericalError, ParameterError, TrainingError, check_bounds
from ..rng import shuffle_rng


@dataclass(frozen=True)
class Schedule:
    """A learning-rate schedule, built as ``Schedule(kind, factor, every)``:
    ``Schedule()`` is constant, ``Schedule("step", 0.5, 2)`` multiplies the
    rate by 0.5 every 2 epochs, ``Schedule("cosine")`` anneals it toward 0."""

    kind: str = "constant"  # constant | step | cosine
    factor: float = 0.1     # step only
    every: int = 30         # step only

    def __post_init__(self):
        if self.kind not in ("constant", "step", "cosine"):
            raise ParameterError(f"unknown schedule kind {self.kind!r}", "kind")
        check_bounds("factor", self.factor, gt=0)
        check_bounds("every", self.every, ge=1)


def lr_at(schedule: Schedule, base_lr: float, epoch: int, total_epochs: int) -> float:
    """Learning rate used during ``epoch`` (0-based) of ``total_epochs``."""
    if schedule.kind == "constant":
        return base_lr
    if schedule.kind == "step":
        return base_lr * schedule.factor ** (epoch // schedule.every)
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * epoch / total_epochs))


@dataclass
class TrainConfig:
    lr: float
    epochs: int
    batch_size: int
    momentum: float = 0.0
    weight_decay: float = 0.0
    schedule: Schedule = field(default_factory=Schedule)
    seed: int = 0

    def __post_init__(self):
        check_bounds("lr", self.lr, gt=0)
        check_bounds("epochs", self.epochs, ge=0)
        check_bounds("batch_size", self.batch_size, ge=1)
        check_bounds("momentum", self.momentum, ge=0, lt=1)
        check_bounds("weight_decay", self.weight_decay, ge=0)

    def with_seed(self, seed: int) -> "TrainConfig":
        return replace(self, seed=seed)


def sgd_step(params, grads, velocities, lr: float, momentum: float,
             weight_decay: float) -> None:
    """One in-place step ``v *= momentum; v += g (+ wd*w); w -= lr*v``.

    ``params`` is a flat list of ``(array, decayed)`` pairs, ``grads`` and
    ``velocities`` hold one array per parameter.  Weight decay touches the
    decayed arrays only (weight matrices and cosine directions, never
    biases or cosine gains).  Every gradient is checked before its
    parameter moves; for a stacked (3-D) parameter the error also names
    the first member whose gradient is non-finite.
    """
    for i, ((w, decayed), g, v) in enumerate(zip(params, grads, velocities, strict=True)):
        if not np.isfinite(g).all():
            member = f", member {np.argwhere(~np.isfinite(g))[0, 0]}" if g.ndim == 3 else ""
            raise NumericalError(f"non-finite gradient in parameter {i}{member}")
        v *= momentum
        v += g + weight_decay * w if decayed and weight_decay else g
        w -= lr * v


def sgd_fit(params, loss_and_grad, n_rows: int, config: TrainConfig,
            on_epoch_end: Callable[[int], None] | None = None,
            seeds=None) -> list:
    """Mini-batch SGD over ``params``; returns the mean loss of each epoch.

    ``loss_and_grad(idx)`` returns the mean loss over the rows ``idx`` and
    one gradient per parameter, all formed before any parameter moves.
    Each epoch draws a Fisher-Yates order from ``shuffle_rng(config.seed)``
    and keeps the partial last batch; the epoch loss weights each batch by
    its rows.

    ``seeds`` trains T independent members at once, one per seed, whose
    parameters are stacked along a leading axis.  Each member draws its
    own order from ``shuffle_rng(seed)``, ``idx`` is then (T, b) with row
    ``t`` member ``t``'s batch, ``loss_and_grad`` returns one loss per
    member, and the result holds one loss history per member.
    ``config.seed`` is unused then.

    A :class:`NumericalError` from ``loss_and_grad`` or a non-finite
    gradient or epoch loss raises :class:`TrainingError` naming the epoch,
    and with ``seeds`` the first member whose gradient or loss is non-finite.
    """
    velocities = [np.zeros_like(w) for w, _ in params]
    rngs = [shuffle_rng(s) for s in ([config.seed] if seeds is None else seeds)]
    history: list = []
    for epoch in range(config.epochs):
        lr = lr_at(config.schedule, config.lr, epoch, config.epochs)
        orders = [rng.permutation(n_rows) for rng in rngs]
        order = orders[0] if seeds is None else np.stack(orders)
        total = 0.0
        for start in range(0, n_rows, config.batch_size):
            idx = order[..., start:start + config.batch_size]
            try:
                loss, grads = loss_and_grad(idx)
                sgd_step(params, grads, velocities, lr, config.momentum,
                         config.weight_decay)
            except NumericalError as exc:
                raise TrainingError(f"training diverged at epoch {epoch}: {exc}",
                                    epoch=epoch) from exc
            total += loss * idx.shape[-1]
        epoch_loss = total / n_rows
        diverged = ~np.isfinite(epoch_loss)
        if diverged.any():
            member = "" if seeds is None else f", member {diverged.argmax()}"
            raise TrainingError(f"training loss diverged at epoch {epoch}{member}", epoch=epoch)
        history.append(epoch_loss)
        if on_epoch_end is not None:
            on_epoch_end(epoch)
    if seeds is None:
        return history
    return [[float(losses[t]) for losses in history] for t in range(len(rngs))]
