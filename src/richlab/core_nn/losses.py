"""Classification and distillation losses with exact analytic gradients.

Every loss returns ``(loss, grad_wrt_its_trainable_logits_or_features)``
where the loss is a mean over rows.  All softmax paths subtract the row
max before exponentiation.  :func:`cross_entropy_loss`,
:func:`distill_to_log_probs` and :func:`cosine_distill_loss` also take
(T, n, k) arrays, T members over the same rows, and then return one loss
per member; member ``t`` equals the loss of the (n, k) slice ``t``, bit
for bit.
"""
from __future__ import annotations

import numpy as np

from ..errors import DataError, NumericalError, ParameterError, ShapeError


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if not np.isfinite(tau) or tau <= 0:
        raise ParameterError(f"temperature must be positive, got {tau}")
    return tau


def log_softmax(logits: np.ndarray, tau: float = 1.0) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    if tau != 1.0:  # x / 1.0 is exact, so skipping the pass changes no bit
        z = z / tau
    k = z.shape[-1]
    if not 0 < k < 8 or z.size < 32 * k * k:
        # the ufunc reductions behind ndarray.max/sum, without their Python wrappers
        z = z - np.maximum.reduce(z, axis=-1, keepdims=True)
        return z - np.log(np.add.reduce(np.exp(z), axis=-1, keepdims=True))
    # A reduction over a short last axis runs one inner loop per row, so on
    # many rows a chain over the k columns is cheaper (from 32*k rows on).
    # It gives the same bits: a max is exact in any order (zero signs
    # included, as the tests check), and numpy sums fewer than 8 elements
    # left to right, as this chain does; from 8 elements on it switches to
    # eight pairwise accumulators, which a chain would not reproduce.
    m = z[..., :1]
    for j in range(1, k):
        m = np.maximum(m, z[..., j:j + 1])
    z = z - m
    e = np.exp(z)
    s = e[..., :1]
    for j in range(1, k):
        s = s + e[..., j:j + 1]
    return z - np.log(s)


def softmax_temperature(v, tau: float) -> np.ndarray:
    """Temperature softmax ``exp(v_i/tau) / sum_k exp(v_k/tau)`` (rows for 2-D input)."""
    tau = _check_tau(tau)
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise NumericalError("softmax input must be finite")
    return np.exp(log_softmax(v, tau))


def _per_member(loss):
    """A float for one member's loss, the array of losses for stacked members."""
    return float(loss) if np.ndim(loss) == 0 else loss


def _as_labels(labels, shape: tuple, n_classes: int) -> np.ndarray:
    """Integer labels of one row each, checked against ``n_classes``.

    ``shape`` is the logits' leading shape: (n,), or (T, n) for stacked
    members, which then share (n,) labels or hold one row of (T, n) each.
    """
    y = np.asarray(labels)
    if y.shape not in (shape, shape[-1:]):
        raise ShapeError(f"labels must be shape {shape[-1:]}, got {y.shape}")
    y = y.astype(np.int64)
    if y.min() < 0 or y.max() >= n_classes:
        raise DataError(f"labels must lie in [0, {n_classes}), got range "
                        f"[{y.min()}, {y.max()}]")
    return y


def cross_entropy_loss(logits, labels) -> tuple[float, np.ndarray]:
    """Mean ``-log softmax(logits)[label]`` and its gradient wrt logits.

    Stacked (T, n, k) logits take (n,) labels shared by the members or
    (T, n) labels, one row per member.
    """
    logits = np.asarray(logits, dtype=np.float64)
    n, k = logits.shape[-2:]
    y = _as_labels(labels, logits.shape[:-1], k)
    rows = np.arange(n)
    # each row's label entry: one label row for every member, or one per member
    picked = (..., rows, y) if y.ndim == 1 else (np.arange(len(y))[:, None], rows, y)
    logp = log_softmax(logits)
    loss = -logp[picked].mean(axis=-1)
    grad = np.exp(logp)
    grad[picked] -= 1.0
    return _per_member(loss), grad / n


def tempered_log_probs(teacher_logits, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Teacher log-probabilities and probabilities at temperature ``tau``.

    Both work row by row, so a row slice of the result equals the result
    on that row slice, bit for bit: a trainer can compute them once per
    teacher and index them per mini-batch.
    """
    logp = log_softmax(np.asarray(teacher_logits, dtype=np.float64), _check_tau(tau))
    return logp, np.exp(logp)


def distill_to_log_probs(teacher_logp, teacher_p, student_logits, tau: float,
                         labels=None, alpha: float = 1.0) -> tuple[float, np.ndarray]:
    """Distillation loss against precomputed :func:`tempered_log_probs` targets.

    ``alpha=1`` is the pure ``tau^2 * mean KL``; below 1 it is blended
    with the cross-entropy on ``labels`` as in :func:`ce_kl_distill_loss`.
    """
    s = np.asarray(student_logits, dtype=np.float64)
    if teacher_logp.shape != s.shape:
        raise ShapeError(f"teacher {teacher_logp.shape} and student {s.shape} logits differ")
    n = s.shape[-2]
    logq = log_softmax(s, tau)
    kl_loss = tau * tau * (teacher_p * (teacher_logp - logq)).sum(axis=-1).mean(axis=-1)
    kl_grad = tau * (np.exp(logq) - teacher_p) / n
    if alpha == 1.0:
        return _per_member(kl_loss), kl_grad
    ce_loss, ce_grad = cross_entropy_loss(s, labels)
    loss = (1.0 - alpha) * ce_loss + alpha * kl_loss
    grad = (1.0 - alpha) * ce_grad + alpha * kl_grad
    return _per_member(loss), grad


def kl_distill_loss(teacher_logits, student_logits, tau: float) -> tuple[float, np.ndarray]:
    """Tempered distillation loss ``tau^2 * mean KL(s_tau(t) || s_tau(s))``.

    The gradient flows only to the student; the classic ``tau^2`` factor
    keeps its magnitude comparable to a cross-entropy gradient.
    """
    tau = _check_tau(tau)
    return distill_to_log_probs(*tempered_log_probs(teacher_logits, tau), student_logits, tau)


def ce_kl_distill_loss(teacher_logits, student_logits, labels, alpha: float,
                       tau: float) -> tuple[float, np.ndarray]:
    """Convex blend ``(1-alpha)*CE(student, labels) + alpha*tau^2*KL``."""
    alpha = float(alpha)
    if not (0.0 <= alpha <= 1.0):
        raise ParameterError(f"alpha must lie in [0, 1], got {alpha}")
    tau = _check_tau(tau)
    return distill_to_log_probs(*tempered_log_probs(teacher_logits, tau), student_logits,
                                tau, labels, alpha)


def cosine_distill_loss(teacher_feat, student_feat) -> tuple[float, np.ndarray]:
    """Mean over rows of ``1 - cos(teacher_row, student_row)``; grad wrt student."""
    t = np.asarray(teacher_feat, dtype=np.float64)
    s = np.asarray(student_feat, dtype=np.float64)
    if t.shape != s.shape:
        raise ShapeError(f"teacher {t.shape} and student {s.shape} features differ")
    n = t.shape[-2]
    tn = np.linalg.norm(t, axis=-1, keepdims=True)
    sn = np.linalg.norm(s, axis=-1, keepdims=True)
    if not (np.all(tn > 0) and np.all(sn > 0)):
        raise NumericalError("cosine distillation saw a zero-norm feature row")
    cos = (t * s).sum(axis=-1, keepdims=True) / (tn * sn)
    loss = _per_member((1.0 - cos).mean(axis=(-2, -1)))
    grad = -(t / (tn * sn) - cos * s / (sn * sn)) / n
    return loss, grad
