"""Dense networks: layers, cosine head, forward/backward, binary format.

All arithmetic is 64-bit floating point.  A ``Network`` is an ordered
stack of dense layers plus a head: with ``head_kind="linear"`` the last
layer of the stack *is* the head and the representation is the
activation entering it; with ``head_kind="cosine"`` the whole stack is
the trunk and a :class:`CosineHead` maps its output to logits.
"""
from __future__ import annotations

import copy
import struct
from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError, NumericalError, ParameterError, ShapeError
from ..rng import SplitMix64

ACTIVATIONS = ("linear", "relu")
_ACT_CODE = {"linear": 0, "relu": 1}
_ACT_NAME = {code: name for name, code in _ACT_CODE.items()}

RRNN_MAGIC = b"RRNN"
RRNN_VERSION = 1


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


@dataclass
class DenseLayer:
    weights: np.ndarray  # (n_out, n_in)
    bias: np.ndarray     # (n_out,)
    activation: str = "linear"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ShapeError("layer weights must be 2-D (n_out, n_in)")
        if self.bias.shape != (self.weights.shape[0],):
            raise ShapeError(
                f"bias shape {self.bias.shape} does not match n_out={self.weights.shape[0]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ParameterError(f"unknown activation {self.activation!r}")

    @property
    def n_in(self) -> int:
        return self.weights.shape[1]

    @property
    def n_out(self) -> int:
        return self.weights.shape[0]


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
    head_kind: str = "linear"  # "linear" | "cosine"
    cosine_head: CosineHead | None = field(default=None)

    def __post_init__(self):
        if not self.layers:
            raise ParameterError("a network needs at least one layer")
        if self.head_kind not in ("linear", "cosine"):
            raise ParameterError(f"unknown head kind {self.head_kind!r}")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.n_out != b.n_in:
                raise ShapeError(
                    f"layer output {a.n_out} does not feed layer input {b.n_in}"
                )
        if self.head_kind == "cosine":
            if self.cosine_head is None:
                raise ParameterError("cosine head kind requires a cosine_head")
            if self.cosine_head.directions.shape[1] != self.layers[-1].n_out:
                raise ShapeError("cosine head width does not match trunk output")

    @property
    def n_in(self) -> int:
        return self.layers[0].n_in

    @property
    def n_out(self) -> int:
        if self.head_kind == "cosine":
            return self.cosine_head.directions.shape[0]
        return self.layers[-1].n_out

    def clone(self) -> "Network":
        return copy.deepcopy(self)


def glorot_layer(n_out: int, n_in: int, rng: SplitMix64, activation: str = "linear") -> DenseLayer:
    """Glorot-uniform layer, bounds +-sqrt(6/(fan_in+fan_out)), weights drawn row-major."""
    bound = np.sqrt(6.0 / (n_in + n_out))
    W = rng.uniform(-bound, bound, n_out * n_in).reshape(n_out, n_in)
    return DenseLayer(W, np.zeros(n_out), activation)


def init_network(sizes, seed: int, hidden_activation: str = "relu") -> Network:
    """Feed-forward net over ``sizes=[d_in, h1, ..., d_out]``; last layer linear."""
    sizes = list(sizes)
    if len(sizes) < 2:
        raise ParameterError("sizes must list at least input and output widths")
    rng = SplitMix64(seed)
    layers = []
    for i in range(len(sizes) - 1):
        act = hidden_activation if i < len(sizes) - 2 else "linear"
        layers.append(glorot_layer(sizes[i + 1], sizes[i], rng, act))
    return Network(layers)


def init_cosine_network(sizes, n_classes: int, seed: int,
                        hidden_activation: str = "relu") -> Network:
    """Trunk over ``sizes`` with a cosine head of ``n_classes`` outputs (gains start at 1)."""
    sizes = list(sizes)
    if len(sizes) < 2:
        raise ParameterError("sizes must list at least input and feature widths")
    rng = SplitMix64(seed)
    layers = []
    for i in range(len(sizes) - 1):
        layers.append(glorot_layer(sizes[i + 1], sizes[i], rng, hidden_activation))
    head = CosineHead(
        glorot_layer(n_classes, sizes[-1], rng).weights, np.ones(n_classes)
    )
    return Network(layers, head_kind="cosine", cosine_head=head)


# ---------------------------------------------------------------------------
# forward / backward over a layer stack

def stack_forward(layers, X: np.ndarray):
    """Run ``X`` through the layer stack.

    Returns ``(acts, pres)``: activations ``acts[0]=X .. acts[L]`` and the
    pre-activation of each layer (needed for relu backward).
    """
    acts = [X]
    pres = []
    h = X
    for layer in layers:
        z = h @ layer.weights.T + layer.bias
        pres.append(z)
        h = np.maximum(z, 0.0) if layer.activation == "relu" else z
        acts.append(h)
    return acts, pres


def stack_backward(layers, acts, pres, d_out: np.ndarray):
    """Backpropagate ``d_out`` (gradient at the stack output).

    Returns ``(grads, d_input)`` where ``grads[i] = (dW_i, db_i)``.
    """
    grads = [None] * len(layers)
    d = d_out
    for i in range(len(layers) - 1, -1, -1):
        layer = layers[i]
        if layer.activation == "relu":
            d = d * (pres[i] > 0)
        grads[i] = (d.T @ acts[i], d.sum(axis=0))
        d = d @ layer.weights
    return grads, d


def cosine_head_forward(z: np.ndarray, head: CosineHead) -> np.ndarray:
    """Cosine-classifier logits for one vector or a batch of row vectors.

    The input is normalized before the dot product, so the output is
    invariant to positive rescaling of ``z``.
    """
    z = np.asarray(z, dtype=np.float64)
    single = z.ndim == 1
    Z = z[None, :] if single else z
    if Z.shape[1] != head.directions.shape[1]:
        raise ShapeError(
            f"feature width {Z.shape[1]} does not match head width {head.directions.shape[1]}"
        )
    z_norms = np.linalg.norm(Z, axis=1, keepdims=True)
    if not np.all(z_norms > 0):
        raise NumericalError("cosine head input has a zero-norm row")
    u_norms = np.linalg.norm(head.directions, axis=1, keepdims=True)
    cosines = (Z / z_norms) @ (head.directions / u_norms).T
    logits = cosines * head.gains
    return logits[0] if single else logits


def cosine_head_backward(Z: np.ndarray, head: CosineHead, d_logits: np.ndarray):
    """Gradients of cosine-head logits wrt directions, gains, and input rows.

    Returns ``(dU, dg, dZ)``.
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
    dZh = dC @ Uh
    dZ = (dZh - (dZh * Zh).sum(axis=1, keepdims=True) * Zh) / z_norms
    return dU, dg, dZ


def forward(net: Network, X) -> tuple[np.ndarray, np.ndarray]:
    """Network forward pass: ``(logits, penultimate)``.

    ``penultimate`` is the activation entering the head: the input of the
    final dense layer for a linear head, and the trunk output for a
    cosine head.  Pure function of ``(net, X)``.
    """
    X = as_feature_matrix(X)
    if X.shape[1] != net.n_in:
        raise ShapeError(f"input width {X.shape[1]} does not match network input {net.n_in}")
    acts, _ = stack_forward(net.layers, X)
    if net.head_kind == "cosine":
        return cosine_head_forward(acts[-1], net.cosine_head), acts[-1]
    return acts[-1], acts[-2]


def extract_features(trunk: Network, X) -> np.ndarray:
    """Representation computed by a head-less trunk: output of the full stack."""
    X = as_feature_matrix(X)
    if X.shape[1] != trunk.n_in:
        raise ShapeError(f"input width {X.shape[1]} does not match trunk input {trunk.n_in}")
    acts, _ = stack_forward(trunk.layers, X)
    return acts[-1]


# ---------------------------------------------------------------------------
# RRNN binary format: little-endian, magic "RRNN", version u32, layer count
# u32, then per layer (n_out u32, n_in u32, activation u8, row-major f64
# weights, f64 biases).

def network_to_bytes(net: Network) -> bytes:
    if net.head_kind != "linear":
        raise ParameterError("the dense-stack format cannot hold a cosine head")
    out = [RRNN_MAGIC, struct.pack("<II", RRNN_VERSION, len(net.layers))]
    for layer in net.layers:
        out.append(struct.pack("<IIB", layer.n_out, layer.n_in, _ACT_CODE[layer.activation]))
        out.append(np.ascontiguousarray(layer.weights, dtype="<f8").tobytes())
        out.append(np.ascontiguousarray(layer.bias, dtype="<f8").tobytes())
    return b"".join(out)


def network_from_bytes(buf: bytes) -> Network:
    from ..errors import FormatError

    if buf[:4] != RRNN_MAGIC:
        raise FormatError("bad magic: not a dense-network file")
    if len(buf) < 12:
        raise FormatError("truncated network header")
    version, n_layers = struct.unpack_from("<II", buf, 4)
    if version != RRNN_VERSION:
        raise FormatError(f"unsupported version {version}")
    off = 12
    layers = []
    for _ in range(n_layers):
        if off + 9 > len(buf):
            raise FormatError("truncated layer header")
        n_out, n_in, act = struct.unpack_from("<IIB", buf, off)
        off += 9
        need = 8 * (n_out * n_in + n_out)
        if off + need > len(buf):
            raise FormatError("truncated layer payload")
        W = np.frombuffer(buf, dtype="<f8", count=n_out * n_in, offset=off).reshape(n_out, n_in)
        off += 8 * n_out * n_in
        b = np.frombuffer(buf, dtype="<f8", count=n_out, offset=off)
        off += 8 * n_out
        if act not in _ACT_NAME:
            raise FormatError(f"unknown activation code {act}")
        layers.append(DenseLayer(W.copy(), b.copy(), _ACT_NAME[act]))
    if off < len(buf):
        raise FormatError(f"{len(buf) - off} trailing bytes after the last layer")
    try:
        return Network(layers)
    except (ParameterError, ShapeError) as exc:  # no layers, or widths that do not chain
        raise FormatError(f"not a network: {exc}") from exc


def save_network(net: Network, path) -> None:
    with open(path, "wb") as f:
        f.write(network_to_bytes(net))


def load_network(path) -> Network:
    with open(path, "rb") as f:
        return network_from_bytes(f.read())
