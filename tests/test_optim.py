import numpy as np
import pytest

from richlab.core_nn import (
    CosineHead,
    DenseLayer,
    Schedule,
    TrainConfig,
    layer_params,
    lr_at,
    sgd_fit,
    sgd_step,
    stack_layers,
)
from richlab.errors import NumericalError, ParameterError, TrainingError


def step_once(params, grads, lr, momentum=0.0, wd=0.0, velocities=None):
    velocities = velocities or [np.zeros_like(w) for w, _ in params]
    sgd_step(params, grads, velocities, lr, momentum, wd)
    return velocities


def one_weight(w0):
    return [(np.array([[w0]]), True)]


def test_plain_sgd_step():
    params = one_weight(1.0)
    step_once(params, [np.array([[2.0]])], lr=0.1)
    assert params[0][0][0, 0] == pytest.approx(0.8)


def test_weight_decay_only_step():
    # w - lr*wd*w = 1 - 0.1*0.5*1 = 0.95
    params = one_weight(1.0)
    step_once(params, [np.zeros((1, 1))], lr=0.1, wd=0.5)
    assert params[0][0][0, 0] == pytest.approx(0.95)


def test_momentum_two_steps_unrolled():
    # v1 = 1, w1 = -0.1; v2 = 0.9 + 1 = 1.9, w2 = -0.1 - 0.19 = -0.29
    params = one_weight(0.0)
    vel = step_once(params, [np.ones((1, 1))], lr=0.1, momentum=0.9)
    step_once(params, [np.ones((1, 1))], lr=0.1, momentum=0.9, velocities=vel)
    assert params[0][0][0, 0] == pytest.approx(-0.29)


def test_weight_decay_skips_biases():
    layer = DenseLayer(np.array([[2.0]]), np.array([3.0]), "linear")
    step_once(layer_params([layer]), [np.zeros((1, 1)), np.zeros(1)], lr=0.1, wd=0.5)
    assert layer.weights[0, 0] < 2.0   # weights shrink
    assert layer.bias[0] == 3.0        # bias untouched


def test_weight_decay_skips_cosine_gains():
    head = CosineHead(np.eye(2), np.array([2.0, 2.0]))
    params = [(head.directions, True), (head.gains, False)]
    step_once(params, [np.zeros((2, 2)), np.zeros(2)], lr=0.1, wd=0.5)
    assert np.allclose(head.gains, [2.0, 2.0])       # gains untouched
    assert head.directions[0, 0] < 1.0               # directions decay


def test_nonfinite_gradient_names_layer():
    layers = [DenseLayer(np.eye(2), np.zeros(2), "linear"),
              DenseLayer(np.eye(2), np.zeros(2), "linear")]
    grads = [np.zeros((2, 2)), np.zeros(2), np.full((2, 2), np.nan), np.zeros(2)]
    with pytest.raises(NumericalError, match="parameter 2"):  # layer 1's weights
        step_once(layer_params(layers), grads, lr=0.1)


def test_nonfinite_stacked_gradient_names_its_first_member():
    stacked = stack_layers([DenseLayer(np.eye(2), np.zeros(2)) for _ in range(4)])
    grads = [np.zeros((4, 2, 2)), np.zeros((4, 1, 2))]
    grads[1][3, 0, 0] = np.nan
    grads[1][2, 0, 1] = np.inf
    with pytest.raises(NumericalError, match=r"parameter 1, member 2$"):
        step_once(layer_params([stacked]), grads, lr=0.1)


@pytest.mark.parametrize("seeds,suffix", [([1, 2, 3], ", member 1"), (None, "")],
                         ids=["stacked", "plain"])
def test_a_non_finite_epoch_loss_names_the_epoch_and_a_stack_its_member(seeds, suffix):
    # the gradients stay finite: only member 1's loss turns infinite, in epoch 1
    stacked = stack_layers([DenseLayer(np.eye(2), np.zeros(2)) for _ in range(3)])
    params = layer_params([stacked])
    calls = []

    def loss_and_grad(idx):
        calls.append(idx)
        loss = np.array([1.0, np.inf if len(calls) > 2 else 1.0, 1.0])
        return (loss if seeds else loss[1]), [np.zeros_like(w) for w, _ in params]

    cfg = TrainConfig(lr=0.1, epochs=3, batch_size=4)  # 6 rows: two batches an epoch
    with pytest.raises(TrainingError) as info:
        sgd_fit(params, loss_and_grad, 6, cfg, seeds=seeds)
    assert (str(info.value), info.value.epoch) == (f"training loss diverged at epoch 1{suffix}", 1)
    assert len(calls) == 4


# ---------------------------------------------------------------------------
# schedules

def test_constant_schedule():
    assert lr_at(Schedule(), 0.3, 17, 100) == 0.3


def test_step_schedule_tenth_every_30():
    sched = Schedule("step", 0.1, 30)
    assert lr_at(sched, 1.0, 0, 90) == pytest.approx(1.0)
    assert lr_at(sched, 1.0, 29, 90) == pytest.approx(1.0)
    assert lr_at(sched, 1.0, 30, 90) == pytest.approx(0.1)
    assert lr_at(sched, 1.0, 60, 90) == pytest.approx(0.01)


def test_cosine_schedule_closed_form():
    sched = Schedule("cosine")
    assert lr_at(sched, 0.8, 0, 100) == pytest.approx(0.8)
    assert lr_at(sched, 0.8, 50, 100) == pytest.approx(0.4)


def test_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig(lr=0.0, epochs=1, batch_size=1)
    with pytest.raises(ParameterError):
        TrainConfig(lr=0.1, epochs=1, batch_size=1, momentum=1.0)
    with pytest.raises(ParameterError):
        TrainConfig(lr=0.1, epochs=1, batch_size=1, weight_decay=-1.0)
    with pytest.raises(ParameterError):
        TrainConfig(lr=0.1, epochs=1, batch_size=0)
