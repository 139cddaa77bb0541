import numpy as np
import pytest

from richlab.core_nn import (
    CosineHead,
    DenseLayer,
    Network,
    TrainConfig,
    cosine_head_forward,
    cross_entropy_loss,
    extract_features,
    init_network,
    stack_forward,
    train,
)
from richlab.errors import DataError, NumericalError, RichlabError, ShapeError
from richlab.probing import ProbeConfig, fit_probe
from richlab.tasks import Dataset


def identity_net(d):
    return Network([DenseLayer(np.eye(d), np.zeros(d), "linear")])


def test_identity_layer_passes_input_through():
    X = np.array([[1.0, 2.0], [3.0, -4.0], [0.5, 0.0]])
    net = identity_net(2)
    assert np.array_equal(extract_features(net, X), X)
    # the single layer is the head, so the representation is the input itself
    assert stack_forward(net.layers, X)[-2] is X


def test_relu_layer_hand_computed():
    # W @ x for x=[1,-1]: [1*1 + (-1)(-1), 2*1 + 2*(-1)] = [2, 0]
    layer = DenseLayer(np.array([[1.0, -1.0], [2.0, 2.0]]), np.zeros(2), "relu")
    net = Network([layer])
    assert np.allclose(extract_features(net, np.array([[1.0, -1.0]])), [[2.0, 0.0]])


def test_forward_rejects_wrong_width():
    with pytest.raises(ShapeError):
        extract_features(identity_net(2), np.ones((3, 5)))


@pytest.mark.parametrize("labels,error,message", [
    ([0, -1, 2], DataError, "labels must lie in [0, 3), got range [-1, 2]"),
    ([0, 3, 2], DataError, "labels must lie in [0, 3), got range [0, 3]"),
    ([[0, 1, 2]], ShapeError, "labels must be shape (3,), got (1, 3)"),
])
def test_every_entry_point_checks_labels_one_way(labels, error, message):
    # one int label per row, in [0, k): every entry point that takes labels
    # refuses a breach with the same exception type and the same words
    X = np.ones((3, 2))
    calls = [lambda: Dataset(X, labels, 3),
             lambda: fit_probe(X, labels, ProbeConfig(), n_classes=3),
             lambda: cross_entropy_loss(np.zeros((3, 3)), labels),
             lambda: train(init_network([2, 3], seed=0), X, labels,
                           TrainConfig(lr=0.1, epochs=1, batch_size=2))]
    for call in calls:
        with pytest.raises(RichlabError) as info:
            call()
        assert type(info.value) is error and str(info.value) == message


def test_layer_shape_consistency_enforced():
    a = DenseLayer(np.ones((3, 2)), np.zeros(3), "relu")
    b = DenseLayer(np.ones((2, 4)), np.zeros(2), "linear")
    with pytest.raises(ShapeError):
        Network([a, b])


def test_penultimate_is_head_input():
    net = init_network([4, 8, 3], seed=0)
    X = SplitRandom(4)
    pen = extract_features(Network(net.layers[:-1]), X)
    assert pen.shape == (X.shape[0], 8)
    assert np.allclose(extract_features(net, X),
                       pen @ net.layers[-1].weights.T + net.layers[-1].bias)


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
    h = cosine_head_forward(np.array([[10.0, 0.0]]), head)
    assert h.shape == (1, 2)
    assert h[0, 0] == pytest.approx(5.0)
    assert h[0, 1] == pytest.approx(0.0)


def test_cosine_head_scale_invariance_bitwise():
    from richlab.rng import SplitMix64

    rng = SplitMix64(77)
    head = CosineHead(rng.normal(12).reshape(3, 4), rng.normal(3))
    z = rng.normal(4).reshape(1, 4)
    for c in (2.0, 0.5, 1024.0):
        assert np.array_equal(cosine_head_forward(c * z, head),
                              cosine_head_forward(z, head))


def test_cosine_head_zero_input_rejected():
    head = CosineHead(np.eye(2), np.ones(2))
    with pytest.raises(NumericalError):
        cosine_head_forward(np.zeros((1, 2)), head)


@pytest.mark.parametrize("shape", [(2,), (1, 3, 2)], ids=["1-D", "3-D"])
def test_cosine_head_reads_only_rows(shape):
    head = CosineHead(np.eye(2), np.ones(2))
    with pytest.raises(ShapeError, match="must be \\(n, d\\) rows"):
        cosine_head_forward(np.ones(shape), head)


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
    assert np.array_equal(extract_features(trunk, X), stack_forward(net.layers, X)[-2])
