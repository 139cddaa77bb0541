import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richlab.core_nn import (
    CosineHead,
    DenseLayer,
    Network,
    cosine_head_forward,
    extract_features,
    forward,
    init_network,
    load_network,
    network_from_bytes,
    network_to_bytes,
    save_network,
)
from richlab.errors import FormatError, NumericalError, ShapeError


def identity_net(d):
    return Network([DenseLayer(np.eye(d), np.zeros(d), "linear")])


def test_identity_layer_passes_input_through():
    X = np.array([[1.0, 2.0], [3.0, -4.0], [0.5, 0.0]])
    logits, penultimate = forward(identity_net(2), X)
    assert np.array_equal(logits, X)
    # the single layer is the head, so the representation is the input itself
    assert np.array_equal(penultimate, X)


def test_relu_layer_hand_computed():
    # W @ x for x=[1,-1]: [1*1 + (-1)(-1), 2*1 + 2*(-1)] = [2, 0]
    layer = DenseLayer(np.array([[1.0, -1.0], [2.0, 2.0]]), np.zeros(2), "relu")
    net = Network([layer])
    logits, _ = forward(net, np.array([[1.0, -1.0]]))
    assert np.allclose(logits, [[2.0, 0.0]])


def test_forward_rejects_wrong_width():
    with pytest.raises(ShapeError):
        forward(identity_net(2), np.ones((3, 5)))


def test_layer_shape_consistency_enforced():
    a = DenseLayer(np.ones((3, 2)), np.zeros(3), "relu")
    b = DenseLayer(np.ones((2, 4)), np.zeros(2), "linear")
    with pytest.raises(ShapeError):
        Network([a, b])


def test_penultimate_is_head_input():
    net = init_network([4, 8, 3], seed=0)
    X = SplitRandom(4)
    logits, pen = forward(net, X)
    assert pen.shape == (X.shape[0], 8)
    assert np.allclose(logits, pen @ net.layers[-1].weights.T + net.layers[-1].bias)


def SplitRandom(d, n=6, seed=123):
    from richlab.rng import SplitMix64

    return SplitMix64(seed).normal(n * d).reshape(n, d)


def test_glorot_bounds():
    net = init_network([50, 20, 5], seed=1)
    w = net.layers[0].weights
    bound = np.sqrt(6.0 / (50 + 20))
    assert np.abs(w).max() <= bound
    assert np.abs(w).max() > 0.5 * bound  # actually fills the range
    assert np.all(net.layers[0].bias == 0)


def test_cosine_head_recovers_gain_on_aligned_input():
    head = CosineHead(np.array([[3.0, 0.0], [0.0, 2.0]]), np.array([5.0, 7.0]))
    # z parallel to u_0 at any positive scale gives h_0 = g_0, and z
    # orthogonal to u_1 gives h_1 = 0
    h = cosine_head_forward(np.array([10.0, 0.0]), head)
    assert h[0] == pytest.approx(5.0)
    assert h[1] == pytest.approx(0.0)


def test_cosine_head_scale_invariance_bitwise():
    from richlab.rng import SplitMix64

    rng = SplitMix64(77)
    head = CosineHead(rng.normal(12).reshape(3, 4), rng.normal(3))
    z = rng.normal(4)
    for c in (2.0, 0.5, 1024.0):
        assert np.array_equal(cosine_head_forward(c * z, head),
                              cosine_head_forward(z, head))


def test_cosine_head_zero_input_rejected():
    head = CosineHead(np.eye(2), np.ones(2))
    with pytest.raises(NumericalError):
        cosine_head_forward(np.zeros(2), head)


def test_cosine_network_forward_shapes():
    # a cosine head over a trunk's features: one logit per row and class
    trunk = init_network([4, 6], seed=5)
    feats = extract_features(trunk, SplitRandom(4))
    head = CosineHead(np.arange(1.0, 19.0).reshape(3, 6), np.ones(3))
    assert feats.shape == (6, 6)
    assert cosine_head_forward(feats + 1.0, head).shape == (6, 3)


def test_extract_features_runs_full_stack():
    net = init_network([4, 8, 3], seed=0)
    trunk = Network(net.layers[:-1])
    X = SplitRandom(4)
    feats = extract_features(trunk, X)
    _, pen = forward(net, X)
    assert np.array_equal(feats, pen)


def test_serialization_bit_exact_roundtrip(tmp_path):
    net = init_network([7, 5, 3], seed=99)
    path = tmp_path / "net.rrnn"
    save_network(net, path)
    back = load_network(path)
    assert len(back.layers) == len(net.layers)
    for a, b in zip(net.layers, back.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)
        assert a.activation == b.activation


def test_serialization_header():
    net = init_network([2, 2], seed=0)
    buf = network_to_bytes(net)
    assert buf[:4] == b"RRNN"
    with pytest.raises(FormatError):
        network_from_bytes(b"XXXX" + buf[4:])
    with pytest.raises(FormatError):
        network_from_bytes(buf[:20])
    with pytest.raises(FormatError, match="truncated network header"):
        network_from_bytes(b"RRNN")


def _rrnn_networks():
    return st.tuples(
        st.lists(st.integers(1, 4), min_size=2, max_size=4),
        st.integers(0, 2**32 - 1),
    ).map(lambda sizes_seed: init_network(*sizes_seed))


@settings(deadline=None, max_examples=30)
@given(_rrnn_networks())
def test_serialization_every_truncation_rejected(net):
    buf = network_to_bytes(net)
    back = network_from_bytes(buf)
    for a, b in zip(net.layers, back.layers, strict=True):
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()
    for cut in range(len(buf)):
        with pytest.raises(FormatError):
            network_from_bytes(buf[:cut])
    with pytest.raises(FormatError, match="trailing"):
        network_from_bytes(buf + b"\x00")


@settings(deadline=None, max_examples=100)
@given(st.binary(max_size=80))
def test_serialization_fuzz_raises_only_format_error(tail):
    # a valid magic and version, then anything: a layer count, layer
    # headers that may not chain, payloads of any length
    try:
        net = network_from_bytes(b"RRNN" + struct.pack("<I", 1) + tail)
    except FormatError:
        return
    assert net.layers
