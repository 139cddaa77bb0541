"""SGD with momentum, L2 weight decay, and learning-rate schedules.

The update rule is ``v <- momentum*v + (g + wd*w); w <- w - lr*v`` with
weight decay applied to weight matrices (and cosine-head directions)
only, never to biases or cosine gains.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..errors import NumericalError, ParameterError
from .layers import Network


@dataclass(frozen=True)
class Schedule:
    kind: str = "constant"  # constant | step | cosine
    factor: float = 0.1     # step only
    every: int = 30         # step only

    def __post_init__(self):
        if self.kind not in ("constant", "step", "cosine"):
            raise ParameterError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "step" and self.every < 1:
            raise ParameterError("step schedule needs every >= 1")

    @staticmethod
    def constant() -> "Schedule":
        return Schedule("constant")

    @staticmethod
    def step(factor: float, every: int) -> "Schedule":
        return Schedule("step", factor=factor, every=every)

    @staticmethod
    def cosine() -> "Schedule":
        return Schedule("cosine")


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
    schedule: Schedule = field(default_factory=Schedule.constant)
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.lr) or self.lr <= 0:
            raise ParameterError(f"lr must be positive and finite, got {self.lr}")
        if not (0.0 <= self.momentum < 1.0):
            raise ParameterError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.weight_decay < 0 or not np.isfinite(self.weight_decay):
            raise ParameterError(f"weight_decay must be nonnegative, got {self.weight_decay}")
        if self.epochs < 0:
            raise ParameterError(f"epochs must be nonnegative, got {self.epochs}")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be positive, got {self.batch_size}")

    def with_seed(self, seed: int) -> "TrainConfig":
        return replace(self, seed=seed)


@dataclass
class NetGrads:
    """Per-layer ``(dW, db)`` plus optional cosine-head ``(dU, dg)``."""

    layers: list[tuple[np.ndarray, np.ndarray]]
    cosine: tuple[np.ndarray, np.ndarray] | None = None


@dataclass
class MomentumState:
    layers: list[tuple[np.ndarray, np.ndarray]]
    cosine: tuple[np.ndarray, np.ndarray] | None = None

    @staticmethod
    def zeros_like(net: Network) -> "MomentumState":
        layers = [
            (np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in net.layers
        ]
        cosine = None
        if net.head_kind == "cosine":
            cosine = (
                np.zeros_like(net.cosine_head.directions),
                np.zeros_like(net.cosine_head.gains),
            )
        return MomentumState(layers, cosine)


def _momentum_update(w, g, v, lr, momentum, wd):
    v *= momentum
    v += g + wd * w if wd else g
    w -= lr * v


def sgd_step(net: Network, grads: NetGrads, state: MomentumState,
             config: TrainConfig, current_lr: float) -> None:
    """One in-place SGD step on ``net`` (and its momentum ``state``).

    Weight decay touches layer weight matrices and cosine directions
    only; biases and cosine gains see the raw data gradient.
    """
    wd = config.weight_decay
    m = config.momentum
    for i, (layer, (dW, db), (vW, vb)) in enumerate(
        zip(net.layers, grads.layers, state.layers)
    ):
        if not (np.isfinite(dW).all() and np.isfinite(db).all()):
            raise NumericalError(f"non-finite gradient in layer {i}")
        _momentum_update(layer.weights, dW, vW, current_lr, m, wd)
        _momentum_update(layer.bias, db, vb, current_lr, m, 0.0)
    if grads.cosine is not None:
        if net.head_kind != "cosine":
            raise ParameterError("cosine gradients supplied for a linear-head network")
        dU, dg = grads.cosine
        vU, vg = state.cosine
        if not (np.isfinite(dU).all() and np.isfinite(dg).all()):
            raise NumericalError("non-finite gradient in cosine head")
        _momentum_update(net.cosine_head.directions, dU, vU, current_lr, m, wd)
        _momentum_update(net.cosine_head.gains, dg, vg, current_lr, m, 0.0)
