import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richlab.core_nn import (
    ce_kl_distill_loss,
    cosine_distill_loss,
    cross_entropy_loss,
    distill_to_log_probs,
    kl_distill_loss,
    softmax_temperature,
    tempered_log_probs,
)
from richlab.core_nn.losses import log_softmax
from richlab.errors import DataError, NumericalError, ParameterError, ShapeError
from richlab.rng import SplitMix64


# ---------------------------------------------------------------------------
# softmax with temperature

def test_softmax_symmetry():
    assert np.allclose(softmax_temperature(np.array([0.0, 0.0]), 1.0), [0.5, 0.5])
    assert np.allclose(softmax_temperature(np.array([1.0, 1.0, 1.0]), 10.0),
                       [1 / 3, 1 / 3, 1 / 3])


def test_softmax_closed_form():
    # exp(ln4 / 2) = 2, so the probabilities are (2/3, 1/3)
    p = softmax_temperature(np.array([np.log(4.0), 0.0]), 2.0)
    assert np.allclose(p, [2 / 3, 1 / 3], atol=1e-12)


def test_softmax_rejects_nonpositive_tau():
    with pytest.raises(ParameterError):
        softmax_temperature(np.array([1.0, 2.0]), 0.0)
    with pytest.raises(ParameterError):
        softmax_temperature(np.array([1.0, 2.0]), -3.0)


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
       st.floats(0.15, 20.0), st.floats(-30, 30))
def test_softmax_sums_to_one_and_shift_invariant(vals, tau, shift):
    # spread/tau stays under ~700 nats, where exp cannot underflow to 0
    v = np.array(vals)
    p = softmax_temperature(v, tau)
    assert abs(p.sum() - 1.0) <= 1e-12
    assert np.all(p > 0)
    q = softmax_temperature(v + shift, tau)
    assert np.allclose(p, q, atol=1e-9)


def _reduced_log_softmax(logits, tau):
    # the textbook expression: numpy reductions over the last axis
    z = np.asarray(logits, dtype=np.float64) / tau
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


@settings(deadline=None, max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 12), rows=st.integers(1, 400),
       stacked=st.booleans(), log_scale=st.floats(-300, 300),
       zeros=st.floats(0, 1), tau=st.sampled_from([1.0, 0.5, 3.0, 10.0, 0.1]))
def test_log_softmax_matches_reductions_bitwise(seed, k, rows, stacked, log_scale, zeros,
                                                tau):
    # row counts on both sides of the switch to column chains (32*k rows),
    # with +0 and -0 entries, so zero maxima of either sign occur
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((rows, k)) * 10.0 ** log_scale
    z[rng.random(z.shape) < zeros / 2] = 0.0
    z[rng.random(z.shape) < zeros / 2] = -0.0
    if stacked:
        z = z.reshape(1, rows, k) if rows % 3 else z.reshape(3, rows // 3, k)
    got = log_softmax(z, tau)
    assert got.shape == z.shape
    assert got.tobytes() == _reduced_log_softmax(z, tau).tobytes()


@pytest.mark.parametrize("k", range(1, 8))
def test_log_softmax_signed_zero_rows_bitwise(k):
    # every row of +-0 and +-1 entries, repeated past the column-chain switch
    import itertools

    rows = np.array(list(itertools.product([0.0, -0.0, 1.0, -1.0], repeat=k)))
    z = np.tile(rows, (1 + 32 * k // len(rows), 1))
    assert log_softmax(z).tobytes() == _reduced_log_softmax(z, 1.0).tobytes()
    assert log_softmax(-z, 2.0).tobytes() == _reduced_log_softmax(-z, 2.0).tobytes()


def test_softmax_extreme_logits_stable():
    p = softmax_temperature(np.array([1000.0, 0.0]), 1.0)
    assert np.isfinite(p).all() and abs(p.sum() - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# cross entropy

def test_ce_symmetric_pair():
    loss, _ = cross_entropy_loss(np.array([[0.0, 0.0]]), np.array([0]))
    assert loss == pytest.approx(np.log(2.0), abs=1e-12)


def test_ce_saturated():
    loss, _ = cross_entropy_loss(np.array([[1000.0, 0.0]]), np.array([0]))
    assert loss < 1e-6


def test_ce_direct_formula():
    # -log softmax([1, 0])[1] = log(1 + e)
    loss, _ = cross_entropy_loss(np.array([[1.0, 0.0]]), np.array([1]))
    assert loss == pytest.approx(np.log(1 + np.e), abs=1e-12)


def test_ce_label_out_of_range():
    with pytest.raises(DataError):
        cross_entropy_loss(np.zeros((2, 3)), np.array([0, 3]))


def test_ce_per_member_labels_checked():
    logits = np.zeros((2, 4, 3))
    with pytest.raises(DataError):
        cross_entropy_loss(logits, np.array([[0, 1, 2, 0], [0, 3, 1, 1]]))
    with pytest.raises(ShapeError):
        cross_entropy_loss(logits, np.zeros((3, 4), dtype=np.int64))


@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), members=st.integers(1, 6), n=st.integers(1, 400),
       k=st.integers(1, 10))
def test_ce_per_member_labels_match_separate_calls_bitwise(seed, members, n, k):
    # (T, n) labels, one row per member.  n spans both sides of the switch
    # to log_softmax's column chains (32*k rows), which a stack can cross
    # while its members alone do not.
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((members, n, k)) * 5.0
    y = rng.integers(0, k, (members, n))
    losses, grad = cross_entropy_loss(logits, y)
    assert losses.shape == (members,) and grad.shape == logits.shape
    for t in range(members):
        loss, g = cross_entropy_loss(logits[t], y[t])
        assert np.float64(loss).tobytes() == losses[t].tobytes()
        assert g.tobytes() == grad[t].tobytes()


def test_ce_gradient_matches_finite_difference():
    rng = SplitMix64(1)
    logits = rng.normal(12).reshape(4, 3)
    y = np.array([0, 2, 1, 1])
    _, grad = cross_entropy_loss(logits, y)
    h = 1e-6
    for r in range(4):
        for c in range(3):
            lp = logits.copy()
            lp[r, c] += h
            lm = logits.copy()
            lm[r, c] -= h
            fd = (cross_entropy_loss(lp, y)[0] - cross_entropy_loss(lm, y)[0]) / (2 * h)
            assert grad[r, c] == pytest.approx(fd, abs=1e-8)


# ---------------------------------------------------------------------------
# temperature-KL distillation

def test_kl_zero_when_equal():
    rng = SplitMix64(2)
    t = rng.normal(10).reshape(2, 5)
    loss, grad = kl_distill_loss(t, t.copy(), tau=3.0)
    assert loss == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(grad, 0.0, atol=1e-15)


def test_kl_zero_under_row_shift():
    rng = SplitMix64(3)
    t = rng.normal(8).reshape(2, 4)
    s = t + 7.5  # softmax is shift invariant
    loss, _ = kl_distill_loss(t, s, tau=2.0)
    assert loss == pytest.approx(0.0, abs=1e-12)


def test_kl_direct_formula():
    # teacher (ln2, 0) at tau=1 -> p = (2/3, 1/3); student (0,0) -> q = (1/2, 1/2)
    # KL(p||q) = (2/3)ln(4/3) + (1/3)ln(2/3)
    t = np.array([[np.log(2.0), 0.0]])
    s = np.array([[0.0, 0.0]])
    loss, _ = kl_distill_loss(t, s, tau=1.0)
    expected = (2 / 3) * np.log((2 / 3) / 0.5) + (1 / 3) * np.log((1 / 3) / 0.5)
    assert loss == pytest.approx(expected, abs=1e-12)
    assert loss == pytest.approx(0.056633, abs=1e-6)


def test_kl_nonnegative_property():
    rng = SplitMix64(4)
    for _ in range(50):
        t = rng.normal(12).reshape(3, 4) * 3
        s = rng.normal(12).reshape(3, 4) * 3
        loss, _ = kl_distill_loss(t, s, tau=rng.uniform(0.5, 10.0))
        assert loss >= 0.0


def test_kl_shape_mismatch():
    with pytest.raises(ShapeError):
        kl_distill_loss(np.zeros((2, 3)), np.zeros((2, 4)), tau=1.0)


# ---------------------------------------------------------------------------
# combined CE + KL

def test_ce_kl_boundaries():
    rng = SplitMix64(5)
    t = rng.normal(12).reshape(4, 3)
    s = rng.normal(12).reshape(4, 3)
    y = np.array([0, 1, 2, 0])
    kl_loss, kl_grad = kl_distill_loss(t, s, tau=4.0)
    l1, g1 = ce_kl_distill_loss(t, s, y, alpha=1.0, tau=4.0)
    assert l1 == pytest.approx(kl_loss) and np.allclose(g1, kl_grad)
    ce_loss, ce_grad = cross_entropy_loss(s, y)
    l0, g0 = ce_kl_distill_loss(t, s, y, alpha=0.0, tau=4.0)
    assert l0 == pytest.approx(ce_loss) and np.allclose(g0, ce_grad)


def test_ce_kl_convex_combination():
    rng = SplitMix64(6)
    t = rng.normal(6).reshape(2, 3)
    s = rng.normal(6).reshape(2, 3)
    y = np.array([1, 0])
    ce_loss, _ = cross_entropy_loss(s, y)
    kl_loss, _ = kl_distill_loss(t, s, tau=2.0)
    mixed, _ = ce_kl_distill_loss(t, s, y, alpha=0.5, tau=2.0)
    assert mixed == pytest.approx(0.5 * ce_loss + 0.5 * kl_loss, abs=1e-12)


def _per_batch_ce_kl(teacher, student, labels, alpha, tau):
    """Teacher softmax recomputed on the batch rows, as trainers once did."""
    n = teacher.shape[0]
    logp = log_softmax(teacher, tau)
    logq = log_softmax(student, tau)
    p = np.exp(logp)
    kl_loss = float(tau * tau * (p * (logp - logq)).sum(axis=1).mean())
    kl_grad = tau * (np.exp(logq) - p) / n
    if alpha == 1.0:
        return kl_loss, kl_grad
    ce_loss, ce_grad = cross_entropy_loss(student, labels)
    return (float((1.0 - alpha) * ce_loss + alpha * kl_loss),
            (1.0 - alpha) * ce_grad + alpha * kl_grad)


@settings(deadline=None, max_examples=120)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 400), st.integers(1, 64),
       st.sampled_from([0.5, 1.0, 4.0, 10.0]), st.sampled_from([0.0, 0.3, 0.9, 1.0]))
def test_precomputed_teacher_targets_match_per_batch_bitwise(seed, k, n, batch, tau, alpha):
    rng = np.random.default_rng(seed)
    teacher = rng.normal(size=(n, k)) * 3.0
    logp, p = tempered_log_probs(teacher, tau)
    idx = rng.permutation(n)[:batch]
    student = rng.normal(size=(len(idx), k))
    y = rng.integers(0, k, len(idx))
    loss, grad = distill_to_log_probs(logp[idx], p[idx], student, tau, y, alpha)
    want_loss, want_grad = _per_batch_ce_kl(teacher[idx], student, y, alpha, tau)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert grad.tobytes() == want_grad.tobytes()


def test_ce_kl_alpha_out_of_range():
    with pytest.raises(ParameterError):
        ce_kl_distill_loss(np.zeros((1, 2)), np.zeros((1, 2)), np.array([0]),
                           alpha=1.5, tau=1.0)


# ---------------------------------------------------------------------------
# cosine distillation

def test_cosine_distill_exact_cases():
    t = np.array([[1.0, 2.0], [3.0, -1.0]])
    assert cosine_distill_loss(t, 5.0 * t)[0] == pytest.approx(0.0, abs=1e-15)
    assert cosine_distill_loss(t, -t)[0] == pytest.approx(2.0, abs=1e-15)
    orth = np.array([[-2.0, 1.0], [1.0, 3.0]])
    assert cosine_distill_loss(t, orth)[0] == pytest.approx(1.0, abs=1e-15)


def test_cosine_distill_range_property():
    rng = SplitMix64(7)
    for _ in range(100):
        t = rng.normal(8).reshape(2, 4)
        s = rng.normal(8).reshape(2, 4)
        loss, _ = cosine_distill_loss(t, s)
        assert 0.0 <= loss <= 2.0


def test_cosine_distill_zero_norm_rejected():
    with pytest.raises(NumericalError):
        cosine_distill_loss(np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]]))
