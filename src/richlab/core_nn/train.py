"""Deterministic mini-batch training driver.

Training is pure: the input network is cloned and the clone is trained.
Given the same initialization, config seed, and data order, two runs
produce bitwise-identical parameters.  Mini-batches come from a seeded
Fisher-Yates shuffle per epoch (shuffle stream seed = ``config.seed+1``)
and the last partial batch is kept.  Stacked members train at once, each
on the shuffle of its own seed.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .layers import (Network, as_feature_matrix, as_labels, extract_features, layer_params,
                     stack_backward, stack_forward)
from .losses import cross_entropy_loss
from .optim import TrainConfig, sgd_fit

LossFn = Callable[[np.ndarray], tuple[float, np.ndarray]]


def network_loss_grad(net: Network, X: np.ndarray,
                      loss_fn: LossFn) -> tuple[float, list[np.ndarray]]:
    """Loss and gradients, in :func:`layer_params` order, of ``loss_fn(logits) -> (loss, dlogits)``."""
    acts = stack_forward(net.layers, X)
    loss, d_logits = loss_fn(acts[-1])
    return loss, stack_backward(net.layers, acts, d_logits)


def train(
    net: Network,
    X,
    y,
    config: TrainConfig,
    on_epoch_end: Callable[[int, Network], None] | None = None,
    seeds=None,
) -> tuple[Network, list]:
    """Train a clone of ``net`` on ``(X, y)`` with cross-entropy; returns ``(trained, history)``.

    ``history`` holds one example-weighted mean training loss per epoch.
    With ``seeds``, ``net`` holds T stacked members (see
    :func:`~richlab.core_nn.layers.stack_layers`) that train at once, each
    on its own batch order from its own seed, as :func:`sgd_fit` describes;
    member ``t`` ends bit for bit where ``net``'s member ``t`` trained alone
    with ``config.with_seed(seeds[t])`` would, and ``history`` holds one
    loss history per member.
    """
    X = as_feature_matrix(X)
    n = X.shape[0]
    y = as_labels(y, (n,), net.n_out)

    net = net.clone()

    def loss_and_grad(idx):
        yb = y[idx]
        return network_loss_grad(net, X[idx], lambda logits: cross_entropy_loss(logits, yb))

    hook = None if on_epoch_end is None else (lambda epoch: on_epoch_end(epoch, net))
    return net, sgd_fit(layer_params(net.layers), loss_and_grad, n, config, hook, seeds)


def accuracy(net: Network, X, y) -> float:
    """Fraction of rows whose argmax logit (lowest index on ties) matches ``y``."""
    return float((extract_features(net, X).argmax(axis=1) == np.asarray(y)).mean())
