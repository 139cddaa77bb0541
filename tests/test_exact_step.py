"""The lean training step gives the same bits as the straightforward one.

The V-REx objective runs without per-environment gathers or scatters,
and ``stack_backward`` skips the unused input gradient.  Frozen copies
of the straightforward versions live here, and the tests compare the
two by bytes: objective values, logit gradients, layer gradients and
whole candidate fits.  Layers stacked along a member axis are compared
by bytes with each member's reference forward and backward pass, and the
relu mask that ``stack_backward`` reads off the activations with the
reference mask on the pre-activations, signed zeros and NaN included.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richlab.core_nn import DenseLayer
from richlab.core_nn.layers import init_network, stack_backward, stack_forward, stack_layers
from richlab.core_nn.losses import log_softmax
from richlab.errors import NumericalError, ParameterError, TrainingError
from richlab.experiments import OodConfig, _env_objective_fn, _fit_ood_model, vrex_objective


def reference_objective_fn(y, env_ids, beta):
    """The objective with one gather and one scatter per environment."""
    envs = np.unique(env_ids)
    groups = [np.flatnonzero(env_ids == e) for e in envs]

    def loss_fn(logits):
        n_env = len(groups)
        logp = log_softmax(logits)
        d = np.exp(logp)
        risks = np.empty(n_env)
        d_logits = np.zeros_like(logits)
        for j, rows in enumerate(groups):
            lp = logp[rows]
            risks[j] = -lp[np.arange(len(rows)), y[rows]].mean()
        mean_risk = risks.mean()
        coeff = 1.0 / n_env + beta * 2.0 * (risks - mean_risk) / n_env
        for j, rows in enumerate(groups):
            g = d[rows]
            g[np.arange(len(rows)), y[rows]] -= 1.0
            d_logits[rows] = coeff[j] * g / len(rows)
        return vrex_objective(risks, beta), d_logits

    return loss_fn


def reference_forward(layers, X):
    acts, pres, h = [X], [], X
    for layer in layers:
        z = h @ layer.weights.T + layer.bias
        pres.append(z)
        h = np.maximum(z, 0.0) if layer.activation == "relu" else z
        acts.append(h)
    return acts, pres


def reference_backward(layers, acts, pres, d_out):
    """Backpropagation that also forms the gradient at the stack input."""
    grads = [None] * len(layers)
    d = d_out
    for i in range(len(layers) - 1, -1, -1):
        layer = layers[i]
        if layer.activation == "relu":
            d = d * (pres[i] > 0)
        grads[i] = (d.T @ acts[i], d.sum(axis=0))
        d = d @ layer.weights
    return grads, d


def reference_fit(net0, X, y, env_ids, beta, lr, wd, steps, momentum):
    """Full-batch V-REx descent built from the reference pieces.

    Returns ``(net, step)``: ``step`` is where a non-finite gradient
    stopped the descent, or None.
    """
    net = net0.clone()
    vel = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in net.layers]
    loss_fn = reference_objective_fn(y, env_ids, beta)
    for step in range(steps):
        acts, pres = reference_forward(net.layers, X)
        _, d_logits = loss_fn(acts[-1])
        grads, _ = reference_backward(net.layers, acts, pres, d_logits)
        if not all(np.isfinite(g).all() for pair in grads for g in pair):
            return net, step
        for layer, (dW, db), (vW, vb) in zip(net.layers, grads, vel):
            vW *= momentum
            vW += dW + wd * layer.weights if wd else dW
            layer.weights -= lr * vW
            vb *= momentum
            vb += db
            layer.bias -= lr * vb
    return net, None


def layout(sizes, ids, seed):
    """Environment ids with the given group sizes, in shuffled row order."""
    env = np.repeat(np.asarray(ids), sizes)
    return np.random.default_rng(seed).permutation(env)


# ---------------------------------------------------------------------------
# (a) the gradient is the derivative of the objective

@pytest.mark.parametrize("beta", [0.0, 0.5, 100.0])
def test_vrex_gradient_matches_central_differences(beta):
    rng = np.random.default_rng(7)
    n, k = 24, 4
    env = layout([5, 8, 11], [0, 2, 7], seed=1)
    y = rng.integers(0, k, n)
    logits = rng.normal(size=(n, k))
    f = _env_objective_fn(y, env, beta, k)
    _, grad = f(logits)
    h = 1e-6
    num = np.empty_like(logits)
    for i in range(n):
        for c in range(k):
            up, down = logits.copy(), logits.copy()
            up[i, c] += h
            down[i, c] -= h
            num[i, c] = (f(up)[0] - f(down)[0]) / (2 * h)
    scale = np.abs(grad).max()
    assert np.abs(num - grad).max() <= 1e-6 * max(scale, 1.0)


def test_negative_beta_is_refused_when_the_closure_is_built():
    y, env = np.array([0, 1, 1]), np.array([0, 0, 1])
    with pytest.raises(ParameterError, match="beta must be nonnegative"):
        _env_objective_fn(y, env, -0.5, 2)
    _env_objective_fn(y, env, 0.0, 2)  # zero is plain ERM over the environments


# ---------------------------------------------------------------------------
# (b) the objective equals the gather/scatter version, bit for bit

@st.composite
def objective_cases(draw):
    n_env = draw(st.integers(1, 4))
    ids = draw(st.lists(st.integers(-5, 50), min_size=n_env, max_size=n_env, unique=True))
    sizes = draw(st.lists(st.integers(1, 90), min_size=n_env, max_size=n_env))
    k = draw(st.integers(1, 10))
    beta = draw(st.sampled_from([0.0, 0.5, 1.0, 100.0, 1e6])
                | st.floats(0.0, 1e3, allow_nan=False))
    scale = 10.0 ** draw(st.integers(-3, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    return sizes, ids, k, beta, scale, seed


@settings(deadline=None, max_examples=150)
@given(objective_cases())
def test_objective_matches_reference_bitwise(case):
    sizes, ids, k, beta, scale, seed = case
    env = layout(sizes, ids, seed)
    rng = np.random.default_rng(seed)
    y = rng.integers(0, k, len(env))
    f_new = _env_objective_fn(y, env, beta, k)
    f_ref = reference_objective_fn(y, env, beta)
    for _ in range(2):  # the second call reuses the label positions
        logits = rng.normal(size=(len(env), k)) * scale
        obj, grad = f_new(logits)
        ref_obj, ref_grad = f_ref(logits)
        assert np.float64(obj).tobytes() == np.float64(ref_obj).tobytes()
        assert grad.tobytes() == ref_grad.tobytes()


# ---------------------------------------------------------------------------
# (c) whole candidate fits over the default grid

def test_fit_ood_model_matches_reference_over_default_grid():
    rng = np.random.default_rng(3)
    n, d, k = 60, 5, 3
    X = rng.normal(size=(n, d))
    y = rng.integers(0, k, n)
    env = layout([12, 20, 28], [1, 4, 9], seed=2)
    grid = OodConfig()
    candidates = [(b, lr, wd) for b in grid.beta_grid for lr in grid.lr_grid
                  for wd in grid.wd_grid]
    candidates += [(100.0, 50.0, 0.0), (0.5, 1e4, 1e-3)]  # these two diverge
    diverged = 0
    for i, (beta, lr, wd) in enumerate(candidates):
        net0 = init_network([d, 6, 4, k] if i % 2 else [d, 6, k], seed=i)
        ref, bad_step = reference_fit(net0, X, y, env, beta, lr, wd, 120, 0.9)
        if bad_step is None:
            net = _fit_ood_model(net0, X, y, env, beta, lr, wd, 120)
            for got, want in zip(net.layers, ref.layers, strict=True):
                assert got.weights.tobytes() == want.weights.tobytes()
                assert got.bias.tobytes() == want.bias.tobytes()
        else:
            diverged += 1
            with pytest.raises(TrainingError) as info:
                _fit_ood_model(net0, X, y, env, beta, lr, wd, 120)
            assert info.value.epoch == bad_step
            assert isinstance(info.value.__cause__, NumericalError)
    assert diverged == 2


# ---------------------------------------------------------------------------
# (d) layer gradients without the input gradient, plain and stacked

def assert_stacked_matches_members(members, X, d_out):
    """Stacked forward/backward equals each member's reference pass, by bytes.

    ``X`` is one (n, d) input shared by the members or (T, n, d);
    ``d_out`` is (T, n, n_out).  Every activation and every gradient of
    member ``t`` is compared.
    """
    stacked = [stack_layers(depth) for depth in zip(*members)]
    acts = stack_forward(stacked, X)
    grads = stack_backward(stacked, acts, d_out)
    assert len(acts) == len(stacked) + 1
    for t, layers in enumerate(members):
        want_acts, want_pres = reference_forward(layers, X if X.ndim == 2 else X[t])
        for got, want in zip(acts[1:], want_acts[1:], strict=True):
            assert got[t].tobytes() == want.tobytes()
        want_grads, _ = reference_backward(layers, want_acts, want_pres, d_out[t])
        flat_want = [g for pair in want_grads for g in pair]
        for got, want in zip(grads, flat_want, strict=True):
            assert got[t].reshape(want.shape).tobytes() == want.tobytes()


@pytest.mark.parametrize("widths,acts", [
    ([7, 3], ["linear"]),
    ([7, 5, 3], ["relu", "linear"]),
    ([7, 6, 5, 3], ["relu", "linear", "relu"]),
])
def test_stack_backward_matches_reference_bitwise(widths, acts):
    rng = np.random.default_rng(len(widths))

    def draw_layers():
        return [DenseLayer(rng.normal(size=(o, i)), rng.normal(size=o), a)
                for i, o, a in zip(widths, widths[1:], acts)]

    layers = draw_layers()
    X = rng.normal(size=(40, widths[0]))
    d_out = rng.normal(size=(40, widths[-1]))
    got_acts = stack_forward(layers, X)
    ref_acts, ref_pres = reference_forward(layers, X)
    for a, b in zip(got_acts, ref_acts, strict=True):
        assert a.tobytes() == b.tobytes()
    grads = stack_backward(layers, got_acts, d_out)
    ref_grads, _ = reference_backward(layers, ref_acts, ref_pres, d_out)
    flat_ref = [g for pair in ref_grads for g in pair]  # dW_0, db_0, dW_1, ...
    for got, want in zip(grads, flat_ref, strict=True):
        assert got.tobytes() == want.tobytes()

    # T members stacked along a leading axis: a full batch of 32 rows, a
    # partial last batch of 24 and a single row; one input for all
    # members or one per member
    for T in range(1, 7):
        members = [draw_layers() for _ in range(T)]
        for n in (32, 24, 1):
            d_out = rng.normal(size=(T, n, widths[-1]))
            assert_stacked_matches_members(members, rng.normal(size=(n, widths[0])), d_out)
            assert_stacked_matches_members(members, rng.normal(size=(T, n, widths[0])), d_out)


@pytest.mark.parametrize("T", [None, 3])
def test_relu_mask_from_activations_matches_reference_at_zeros_and_nan(T):
    """The relu mask read off the activation, ``max(z, 0) > 0``, gives the
    reference gradients, which mask with ``z > 0``, byte for byte.

    A BLAS product never yields -0.0, so the pre-activations are chosen
    here, with exact +0.0, -0.0 and NaN entries, and the activations are
    formed from them as ``stack_forward`` forms them.
    """
    rng = np.random.default_rng(11)
    members = [[DenseLayer(rng.normal(size=(6, 4)), rng.normal(size=6), "relu"),
                DenseLayer(rng.normal(size=(3, 6)), rng.normal(size=3), "linear")]
               for _ in range(T or 1)]
    layers = members[0] if T is None else [stack_layers(depth) for depth in zip(*members)]
    lead = () if T is None else (T,)
    X = rng.normal(size=lead + (20, 4))
    z0 = rng.normal(size=lead + (20, 6))
    special = rng.integers(0, 4, size=z0.shape)  # 0: keep, 1: +0.0, 2: -0.0, 3: NaN
    z0[special == 1], z0[special == 2], z0[special == 3] = 0.0, -0.0, np.nan
    assert np.signbit(z0[special == 2]).all() and not np.signbit(z0[special == 1]).any()
    act1 = z0.copy()
    np.maximum(act1, 0.0, out=act1)
    with np.errstate(invalid="ignore"):  # the NaN rows are the point
        z1 = act1 @ layers[1].weights.swapaxes(-1, -2) + layers[1].bias
        d_out = rng.normal(size=z1.shape)
        grads = stack_backward(layers, [X, act1, z1], d_out)
        for t, plain in enumerate(members):
            i = ... if T is None else t  # a[...] is all of a plain array
            ref_grads, _ = reference_backward(plain, [X[i], act1[i], z1[i]], [z0[i], z1[i]],
                                              d_out[i])
            for got, want in zip(grads, [g for pair in ref_grads for g in pair], strict=True):
                assert got[i].reshape(want.shape).tobytes() == want.tobytes()
    # the NaN activations reach the last layer's weight gradient, not the mask
    assert np.isnan(grads[2]).any() and not np.isnan(grads[0]).any()
