"""Deterministic mini-batch training driver.

Training is pure: the input network is cloned and the clone is trained.
Given the same initialization, config seed, and data order, two runs
produce bitwise-identical parameters.  Mini-batches come from a seeded
Fisher-Yates shuffle per epoch (shuffle stream seed = ``config.seed+1``)
and the last partial batch is kept.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import DataError, NumericalError, ParameterError, TrainingError
from ..rng import shuffle_rng
from .layers import (
    Network,
    as_feature_matrix,
    cosine_head_backward,
    cosine_head_forward,
    stack_backward,
    stack_forward,
)
from .losses import cross_entropy_loss
from .optim import MomentumState, NetGrads, TrainConfig, lr_at, sgd_step

LossFn = Callable[[np.ndarray], tuple[float, np.ndarray]]


def network_loss_grad(net: Network, X: np.ndarray, loss_fn: LossFn) -> tuple[float, NetGrads]:
    """Loss and full parameter gradient for ``loss_fn(logits) -> (loss, dlogits)``."""
    acts, pres = stack_forward(net.layers, X)
    if net.head_kind == "cosine":
        logits = cosine_head_forward(acts[-1], net.cosine_head)
        loss, d_logits = loss_fn(logits)
        dU, dg, d_feat = cosine_head_backward(acts[-1], net.cosine_head, d_logits)
        layer_grads = stack_backward(net.layers, acts, pres, d_feat)
        return loss, NetGrads(layer_grads, (dU, dg))
    loss, d_logits = loss_fn(acts[-1])
    layer_grads = stack_backward(net.layers, acts, pres, d_logits)
    return loss, NetGrads(layer_grads)


def flatten_params(net: Network) -> np.ndarray:
    parts = []
    for layer in net.layers:
        parts.append(layer.weights.ravel())
        parts.append(layer.bias.ravel())
    if net.head_kind == "cosine":
        parts.append(net.cosine_head.directions.ravel())
        parts.append(net.cosine_head.gains.ravel())
    return np.concatenate(parts)


def set_flat_params(net: Network, flat: np.ndarray) -> None:
    off = 0

    def take(arr):
        nonlocal off
        n = arr.size
        arr[...] = flat[off:off + n].reshape(arr.shape)
        off += n

    for layer in net.layers:
        take(layer.weights)
        take(layer.bias)
    if net.head_kind == "cosine":
        take(net.cosine_head.directions)
        take(net.cosine_head.gains)
    if off != flat.size:
        raise ParameterError(f"parameter vector length {flat.size} != {off}")


def flatten_grads(grads: NetGrads) -> np.ndarray:
    parts = []
    for dW, db in grads.layers:
        parts.append(dW.ravel())
        parts.append(db.ravel())
    if grads.cosine is not None:
        parts.append(grads.cosine[0].ravel())
        parts.append(grads.cosine[1].ravel())
    return np.concatenate(parts)


def train(
    net: Network,
    X,
    y,
    config: TrainConfig,
    loss_kind: str = "ce",
    on_epoch_end: Callable[[int, Network], None] | None = None,
) -> tuple[Network, list[float]]:
    """Train a clone of ``net`` on ``(X, y)``; returns ``(trained, history)``.

    ``history`` holds one example-weighted mean training loss per epoch.
    Supervised data supports ``loss_kind="ce"`` only; the distillation
    losses need teacher outputs and run through the distillation trainer.
    """
    if loss_kind != "ce":
        raise ParameterError(
            f"train() supports loss_kind='ce'; {loss_kind!r} needs teacher outputs"
        )
    X = as_feature_matrix(X)
    y = np.asarray(y, dtype=np.int64)
    n = X.shape[0]
    if n == 0:
        raise DataError("training data is empty")
    if y.shape != (n,):
        raise DataError(f"labels must be shape ({n},), got {y.shape}")

    net = net.clone()
    if config.epochs == 0:
        return net, []
    state = MomentumState.zeros_like(net)
    rng = shuffle_rng(config.seed)
    history: list[float] = []
    for epoch in range(config.epochs):
        lr = lr_at(config.schedule, config.lr, epoch, config.epochs)
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            xb, yb = X[idx], y[idx]
            loss, grads = network_loss_grad(
                net, xb, lambda logits: cross_entropy_loss(logits, yb)
            )
            try:
                sgd_step(net, grads, state, config, lr)
            except NumericalError as exc:
                raise TrainingError(f"training diverged at epoch {epoch}: {exc}",
                                    epoch=epoch) from exc
            total += loss * len(idx)
        epoch_loss = total / n
        if not np.isfinite(epoch_loss):
            raise TrainingError(f"training loss diverged at epoch {epoch}", epoch=epoch)
        history.append(epoch_loss)
        if on_epoch_end is not None:
            on_epoch_end(epoch, net)
    return net, history


def predict_logits(net: Network, X) -> np.ndarray:
    from .layers import forward

    return forward(net, X)[0]


def accuracy(net: Network, X, y) -> float:
    """Fraction of rows whose argmax logit (lowest index on ties) matches ``y``."""
    logits = predict_logits(net, X)
    return float((logits.argmax(axis=1) == np.asarray(y)).mean())
