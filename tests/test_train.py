import numpy as np
import pytest

from richlab.core_nn import (
    CosineHead,
    Network,
    Schedule,
    TrainConfig,
    accuracy,
    cosine_distill_loss,
    cosine_head_backward,
    cosine_head_forward,
    cross_entropy_loss,
    distill_to_log_probs,
    init_network,
    layer_params,
    stack_layers,
    tempered_log_probs,
    train,
)
from richlab.errors import NumericalError, TrainingError
from richlab.experiments import fit_cosine_classifier
from richlab.rng import SplitMix64, derive_seed


def params_equal(a, b):
    return all(np.array_equal(p, q) for (p, _), (q, _) in
               zip(layer_params(a.layers), layer_params(b.layers), strict=True))


def two_blobs(n=60, seed=0):
    """Linearly separable 2-class blobs, with the separability checked
    directly: every point has positive margin along the center line."""
    rng = SplitMix64(seed)
    c0, c1 = np.array([-2.0, 0.0]), np.array([2.0, 0.0])
    X0 = c0 + 0.3 * rng.normal(2 * n).reshape(n, 2)
    X1 = c1 + 0.3 * rng.normal(2 * n).reshape(n, 2)
    w = c1 - c0
    margins = np.concatenate([-(X0 @ w), X1 @ w])
    assert margins.min() > 0, "blob draw failed the separability check"
    X = np.vstack([X0, X1])
    y = np.array([0] * n + [1] * n)
    return X, y


def test_zero_epochs_returns_net_unchanged():
    net = init_network([2, 4, 2], seed=1)
    X, y = two_blobs()
    trained, history = train(net, X, y, TrainConfig(lr=0.1, epochs=0, batch_size=8))
    assert history == []
    assert params_equal(net, trained)


def test_determinism_same_seed_identical_bytes():
    net = init_network([2, 4, 2], seed=1)
    X, y = two_blobs()
    cfg = TrainConfig(lr=0.05, epochs=5, batch_size=8, momentum=0.9, seed=42)
    a, hist_a = train(net, X, y, cfg)
    b, hist_b = train(net, X, y, cfg)
    assert params_equal(a, b)
    assert hist_a == hist_b


def test_different_seed_differs():
    net = init_network([2, 4, 2], seed=1)
    X, y = two_blobs()
    a, _ = train(net, X, y, TrainConfig(lr=0.05, epochs=5, batch_size=8, seed=1))
    b, _ = train(net, X, y, TrainConfig(lr=0.05, epochs=5, batch_size=8, seed=2))
    assert not params_equal(a, b)


def test_separable_blobs_reach_perfect_accuracy():
    net = init_network([2, 8, 2], seed=3)
    X, y = two_blobs()
    trained, history = train(net, X, y,
                             TrainConfig(lr=0.1, epochs=200, batch_size=16, momentum=0.9, seed=0))
    assert len(history) == 200
    assert accuracy(trained, X, y) == 1.0


def test_history_length_matches_epochs():
    net = init_network([2, 4, 2], seed=1)
    X, y = two_blobs()
    _, history = train(net, X, y, TrainConfig(lr=0.05, epochs=7, batch_size=32))
    assert len(history) == 7


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_gradient_is_training_error_with_epoch():
    X, y = two_blobs()
    with pytest.raises(TrainingError, match="non-finite gradient") as info:
        train(init_network([2, 4, 2], seed=1), X, y,
              TrainConfig(lr=1e6, epochs=3, batch_size=8))
    assert f"epoch {info.value.epoch}:" in str(info.value)
    assert isinstance(info.value.__cause__, NumericalError)


def test_stacked_members_train_each_as_alone():
    # members 0 and 2 share a batch order; each ends, with its loss
    # history, where it would trained alone
    X, y = two_blobs()
    cfg = TrainConfig(lr=0.05, epochs=4, batch_size=16, momentum=0.9, weight_decay=1e-3)
    seeds = [3, 8, 3]
    nets = [init_network([2, 5, 2], seed=s) for s in (1, 2, 3)]
    stacked = Network([stack_layers(depth) for depth in zip(*(net.layers for net in nets))])
    trained, histories = train(stacked, X, y, cfg, seeds=seeds)
    assert len(histories) == len(seeds)
    for t, (net, seed) in enumerate(zip(nets, seeds)):
        alone, history = train(net, X, y, cfg.with_seed(seed))
        assert np.array(histories[t]).tobytes() == np.array(history).tobytes()
        for got, want in zip(trained.layers, alone.layers, strict=True):
            assert got.weights[t].tobytes() == want.weights.tobytes()
            assert got.bias[t, 0].tobytes() == want.bias.tobytes()


def test_train_is_pure():
    net = init_network([2, 4, 2], seed=1)
    before = net.clone()
    X, y = two_blobs()
    train(net, X, y, TrainConfig(lr=0.1, epochs=3, batch_size=8))
    assert params_equal(net, before)


def test_cosine_head_network_trains():
    # a cosine head fitted through the shared loop on the blobs themselves
    X, y = two_blobs()
    head = fit_cosine_classifier(X, y, 2, seed=9, lr=0.05, epochs=150, batch_size=16)
    assert (cosine_head_forward(X, head).argmax(axis=1) == y).mean() >= 0.95


def test_schedule_changes_trajectory():
    net = init_network([2, 4, 2], seed=1)
    X, y = two_blobs()
    a, _ = train(net, X, y, TrainConfig(lr=0.1, epochs=10, batch_size=8, seed=0))
    b, _ = train(net, X, y, TrainConfig(lr=0.1, epochs=10, batch_size=8, seed=0,
                                        schedule=Schedule("cosine")))
    assert not params_equal(a, b)


# ---------------------------------------------------------------------------
# gradient correctness: backprop vs central finite differences on instances
# kept away from relu kinks (where the subgradient convention makes the
# comparison meaningless)

from richlab.verify import (GRAD_LOSSES, _loss_fn, _name_offset, gradcheck_instance,
                            max_grad_rel_error)


def test_backprop_matches_fd_cross_entropy():
    net, X, _, y = gradcheck_instance(10, "ce")
    worst = max_grad_rel_error(net, X, lambda logits: cross_entropy_loss(logits, y),
                               n_coords=60)
    assert worst < 1e-4


@pytest.mark.parametrize("tau", [1.0, 10.0])
def test_backprop_matches_fd_kl(tau):
    net, X, teacher, _ = gradcheck_instance(11, "kl")
    targets = tempered_log_probs(teacher, tau)
    worst = max_grad_rel_error(net, X, lambda logits: distill_to_log_probs(*targets, logits, tau),
                               n_coords=60)
    assert worst < 1e-4


def test_backprop_matches_fd_ce_kl():
    net, X, teacher, y = gradcheck_instance(12, "ce_kl")
    targets = tempered_log_probs(teacher, 4.0)
    worst = max_grad_rel_error(
        net, X, lambda logits: distill_to_log_probs(*targets, logits, 4.0, y, alpha=0.9),
        n_coords=60,
    )
    assert worst < 1e-4


def test_backprop_matches_fd_cosine_distill():
    net, X, teacher, _ = gradcheck_instance(13, "cosine")
    worst = max_grad_rel_error(net, X, lambda logits: cosine_distill_loss(teacher, logits),
                               n_coords=60)
    assert worst < 1e-4


# the worst relative error of each gradient_suite check at seed 0, by float.hex
GRADIENT_SUITE_SEED_0 = {
    "ce": "0x1.d4e0b51429866p-28",
    "kl_tau1": "0x1.a1593132ae6a5p-27",
    "kl_tau10": "0x1.0be2f17f6c8b8p-18",
    "ce_kl": "0x1.aad74944d7756p-26",
    "cosine": "0x1.043a3a8757c30p-29",
}


@pytest.mark.parametrize("loss_name", GRAD_LOSSES)
def test_gradient_suite_worst_errors_at_seed_0_are_pinned(loss_name):
    """The finite differences perturb each sampled coordinate by the same
    roundings, so the worst error is the same float on every run."""
    net, X, teacher, y = gradcheck_instance(derive_seed(0, _name_offset(loss_name)),
                                            loss_name)
    worst = max_grad_rel_error(net, X, _loss_fn(loss_name, teacher, y), seed=0)
    assert worst.hex() == GRADIENT_SUITE_SEED_0[loss_name]


def test_backprop_matches_fd_cosine_head():
    # a bare cosine head: gradients wrt its directions and gains
    rng = SplitMix64(140)
    head = CosineHead(rng.normal(4 * 6).reshape(4, 6), rng.normal(4) + 2.0)
    Z = rng.normal(8 * 6).reshape(8, 6) + 0.5
    y = rng.integers(4, 8)

    def loss(U, g, Z):
        return cross_entropy_loss(cosine_head_forward(Z, CosineHead(U, g)), y)[0]

    _, d_logits = cross_entropy_loss(cosine_head_forward(Z, head), y)
    analytic = cosine_head_backward(Z, head, d_logits)
    point, h, worst = [head.directions, head.gains, Z], 1e-5, 0.0
    for a, grad in enumerate(analytic):
        for i in np.ndindex(grad.shape):
            up, down = [p.copy() for p in point], [p.copy() for p in point]
            up[a][i] += h
            down[a][i] -= h
            fd = (loss(*up) - loss(*down)) / (2 * h)
            worst = max(worst, abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-5))
    assert worst < 1e-4
