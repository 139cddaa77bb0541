"""Dense networks: layers, cosine head, forward/backward.

All arithmetic is 64-bit floating point.  A ``Network`` is an ordered
stack of dense layers whose last layer is the head; the representation
is the activation entering it.  A :class:`CosineHead` is a standalone
classifier over frozen features (the few-shot cosine classifier).

A dense layer may hold a leading member axis: T equal-shaped layers
stacked by :func:`stack_layers` run as one.  :func:`stack_forward` and
:func:`stack_backward` take plain and stacked layers through one code
path, and member ``t`` of a stacked result equals, bit for bit, the
plain layer ``t`` run alone.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from ..errors import DataError, NumericalError, ParameterError, ShapeError
from ..rng import SplitMix64

ACTIVATIONS = ("linear", "relu")


def as_feature_matrix(X, name: str = "X") -> np.ndarray:
    """Validate and return a 2-D float64 feature matrix."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"{name} must be 2-D (rows = examples), got ndim={X.ndim}")
    if X.shape[0] < 1 or X.shape[1] < 1:
        raise ShapeError(f"{name} must be at least 1x1, got {X.shape}")
    if not np.all(np.isfinite(X)):
        raise DataError(f"{name} contains non-finite entries")
    return X


def as_labels(labels, shape: tuple, n_classes: float) -> np.ndarray:
    """Validate and return int64 labels, one per row, in ``[0, n_classes)``.

    ``shape`` is the leading shape of the rows: (n,), or (T, n) for T
    stacked members over the same rows, which then share one (n,) row of
    labels or hold one row of (T, n) each.  An ``n_classes`` of ``np.inf``
    checks the sign alone.
    """
    y = np.asarray(labels)
    if y.shape not in (shape, shape[-1:]):
        want = shape if len(shape) == 1 else f"{shape[-1:]} or {shape}"
        raise ShapeError(f"labels must be shape {want}, got {y.shape}")
    y = y.astype(np.int64, copy=False)
    if y.min() < 0 or y.max() >= n_classes:
        raise DataError(f"labels must lie in [0, {n_classes}), got range "
                        f"[{y.min()}, {y.max()}]")
    return y


@dataclass
class DenseLayer:
    """Dense layer ``act(h @ W^T + b)``.

    Plain: weights (n_out, n_in), bias (n_out,).  Stacked over T members:
    weights (T, n_out, n_in), bias (T, 1, n_out), which broadcasts over
    the rows of each member's output.
    """

    weights: np.ndarray
    bias: np.ndarray
    activation: str = "linear"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim not in (2, 3):
            raise ShapeError("layer weights must be (n_out, n_in), or (T, n_out, n_in) stacked")
        want = (self.n_out,) if self.weights.ndim == 2 else (len(self.weights), 1, self.n_out)
        if self.bias.shape != want:
            raise ShapeError(f"bias shape {self.bias.shape} does not match {want}")
        if self.activation not in ACTIVATIONS:
            raise ParameterError(f"unknown activation {self.activation!r}")

    @property
    def n_in(self) -> int:
        return self.weights.shape[-1]

    @property
    def n_out(self) -> int:
        return self.weights.shape[-2]


@dataclass
class CosineHead:
    """Logits ``h_i = g_i * <u_i, z> / (||u_i|| ||z||)`` over directions u and gains g."""

    directions: np.ndarray  # (n_classes, n_features)
    gains: np.ndarray       # (n_classes,)

    def __post_init__(self):
        self.directions = np.asarray(self.directions, dtype=np.float64)
        self.gains = np.asarray(self.gains, dtype=np.float64)
        if self.directions.ndim != 2:
            raise ShapeError("cosine head directions must be 2-D")
        if self.gains.shape != (self.directions.shape[0],):
            raise ShapeError("cosine head gains must have one entry per class")
        norms = np.linalg.norm(self.directions, axis=1)
        if not np.all(norms > 0):
            raise NumericalError("cosine head directions must have positive norm")
        if not np.all(np.isfinite(self.gains)):
            raise NumericalError("cosine head gains must be finite")


@dataclass
class Network:
    layers: list[DenseLayer]

    def __post_init__(self):
        if not self.layers:
            raise ParameterError("a network needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.n_out != b.n_in:
                raise ShapeError(
                    f"layer output {a.n_out} does not feed layer input {b.n_in}"
                )

    @property
    def n_in(self) -> int:
        return self.layers[0].n_in

    @property
    def n_out(self) -> int:
        return self.layers[-1].n_out

    def clone(self) -> "Network":
        return copy.deepcopy(self)


def glorot_layer(n_out: int, n_in: int, rng: SplitMix64, activation: str = "linear") -> DenseLayer:
    """Glorot-uniform layer, bounds +-sqrt(6/(fan_in+fan_out)), weights drawn row-major."""
    bound = np.sqrt(6.0 / (n_in + n_out))
    W = rng.uniform(-bound, bound, n_out * n_in).reshape(n_out, n_in)
    return DenseLayer(W, np.zeros(n_out), activation)


def init_trunk(sizes, rng: SplitMix64) -> Network:
    """Head-less trunk drawn from ``rng``: every layer is relu."""
    sizes = list(sizes)
    if len(sizes) < 2:
        raise ParameterError("trunk sizes must list input and at least one width")
    return Network([glorot_layer(sizes[i + 1], sizes[i], rng, "relu")
                    for i in range(len(sizes) - 1)])


def init_network(sizes, seed: int) -> Network:
    """Feed-forward net over ``sizes=[d_in, h1, ..., d_out]``: an :func:`init_trunk`
    trunk over the hidden widths, then a linear head, drawn from one stream."""
    sizes = list(sizes)
    if len(sizes) < 2:
        raise ParameterError("sizes must list at least input and output widths")
    rng = SplitMix64(seed)
    trunk = init_trunk(sizes[:-1], rng).layers if len(sizes) > 2 else []
    return Network([*trunk, glorot_layer(sizes[-1], sizes[-2], rng)])


def stack_layers(layers) -> DenseLayer:
    """One layer holding equal-shaped plain ``layers`` along a leading member axis."""
    layers = list(layers)
    if len({layer.activation for layer in layers}) != 1:
        raise ParameterError("stacked layers must share one activation")
    if len({layer.weights.shape for layer in layers}) != 1:
        raise ShapeError("stacked layers must share one weight shape")
    return DenseLayer(np.stack([layer.weights for layer in layers]),
                      np.stack([layer.bias for layer in layers])[:, None, :],
                      layers[0].activation)


def layer_params(layers) -> list[tuple[np.ndarray, bool]]:
    """Trainable arrays of a layer stack as ``(array, decayed)`` pairs.

    Per layer the weights (decayed) come before the bias (not decayed),
    the order in which :func:`stack_backward` returns their gradients.
    """
    return [p for layer in layers for p in ((layer.weights, True), (layer.bias, False))]


# ---------------------------------------------------------------------------
# forward / backward over a layer stack

def stack_forward(layers, X: np.ndarray):
    """Run ``X`` through the layer stack; returns activations ``acts[0]=X .. acts[L]``.

    Relu runs in place on each layer's fresh product, so a layer keeps one
    array.  With stacked layers every activation after ``X`` is (T, n, width);
    ``X`` itself may be one (n, d_in) input shared by the members or (T, n, d_in).
    """
    acts = [X]
    for layer in layers:
        h = acts[-1] @ layer.weights.swapaxes(-1, -2)
        h += layer.bias  # in place on the fresh product: the same sums, one array fewer
        if layer.activation == "relu":
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return acts


def stack_backward(layers, acts, d_out: np.ndarray):
    """Backpropagate ``d_out``, the gradient at the output of :func:`stack_forward`'s ``acts``.

    Returns the layer grads only, flat in :func:`layer_params` order:
    ``[dW_0, db_0, dW_1, db_1, ...]``.  The gradient with respect to the
    stack input is never formed: every caller trains the stack and none
    needs it.  A relu passes the gradient where its activation is positive,
    which is where its pre-activation is, signed zeros and NaN included.
    For stacked layers ``d_out`` is (T, n, n_out), and each gradient has
    the shape of its stacked parameter.
    """
    grads = [None] * (2 * len(layers))
    d = d_out
    for i in range(len(layers) - 1, -1, -1):
        layer = layers[i]
        if layer.activation == "relu":
            d = d * (acts[i + 1] > 0)
        grads[2 * i] = d.swapaxes(-1, -2) @ acts[i]
        grads[2 * i + 1] = d.sum(axis=-2, keepdims=d.ndim == 3)  # the bias's shape
        if i:
            d = d @ layer.weights
    return grads


def cosine_head_forward(Z: np.ndarray, head: CosineHead) -> np.ndarray:
    """Cosine-classifier logits of the (n, d) rows ``Z``, one row per input.

    Each row is normalized before the dot product, so its logits are
    invariant to positive rescaling of the row.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2:
        raise ShapeError(f"cosine head input must be (n, d) rows, got shape {Z.shape}")
    if Z.shape[1] != head.directions.shape[1]:
        raise ShapeError(
            f"feature width {Z.shape[1]} does not match head width {head.directions.shape[1]}"
        )
    z_norms = np.linalg.norm(Z, axis=1, keepdims=True)
    if not np.all(z_norms > 0):
        raise NumericalError("cosine head input has a zero-norm row")
    u_norms = np.linalg.norm(head.directions, axis=1, keepdims=True)
    cosines = (Z / z_norms) @ (head.directions / u_norms).T
    return cosines * head.gains


def cosine_head_backward(Z: np.ndarray, head: CosineHead, d_logits: np.ndarray):
    """Gradients of cosine-head logits wrt the directions and the gains.

    Returns ``(dU, dg)``.  The gradient wrt the input rows is never formed:
    the head trains on frozen features.
    """
    z_norms = np.linalg.norm(Z, axis=1, keepdims=True)
    u_norms = np.linalg.norm(head.directions, axis=1, keepdims=True)
    Zh = Z / z_norms
    Uh = head.directions / u_norms
    C = Zh @ Uh.T  # (n, K) cosines
    dg = (d_logits * C).sum(axis=0)
    dC = d_logits * head.gains
    dUh = dC.T @ Zh
    dU = (dUh - (dUh * Uh).sum(axis=1, keepdims=True) * Uh) / u_norms
    return dU, dg


def extract_features(net: Network, X) -> np.ndarray:
    """The last activation of ``net``'s layer stack on the checked input ``X``:
    a head-less trunk's representation, or a network's logits."""
    X = as_feature_matrix(X)
    if X.shape[1] != net.n_in:
        raise ShapeError(f"input width {X.shape[1]} does not match network input {net.n_in}")
    return stack_forward(net.layers, X)[-1]

