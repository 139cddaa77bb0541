"""Convex linear probing and the information relations built on it.

A probe is a multinomial-logistic classifier trained on frozen features
by full-batch gradient descent with Armijo backtracking (trial step 1.0,
shrink 0.5, sufficient-decrease constant 1e-4; the next trial step warms
up to twice the last accepted step, capped at 1.0).  The objective is

    mean softmax cross-entropy + (l2/2) * ||W||^2

with the bias unpenalized, so the achieved value is the reported probing
cost.  Because the objective is convex, the optimum is unique up to
solver slack, which is what the information relations lean on.

The solver works on stacks of independent problems: features
``(E, n, d)`` give ``E`` probes from one call, on labels ``(E, n)`` or,
as the losses take them, one ``(n,)`` row that every problem shares.
Each problem runs its own line search, and a problem that converges or
stalls stops moving while the others go on, so each problem's iterates
are bit for bit those of fitting it alone; a 2-D ``(n, d)`` input is a
stack of one.  For stacked input the result's arrays gain a leading
``E`` axis, ``converged`` is true only when every problem converged, and
``result[e]`` is problem ``e`` as a single probe.

Two pipelines fit stacks: few-shot evaluation fits the support sets of
a block of episodes of every representation of one width at once,
gathered from the episodes' row positions, as many representations to a
stack as its memory bound allows (``experiments.episode_accuracies``),
and the transfer pipeline fits one
probe per leg of a bank on the same rows, through ``ProbeCache.fit``, for
the per-leg probe gap and for the per-leg ensemble ``catsub``.

The transfer pipeline also poses the same problem more than once: ``erm``
is leg 0 of the concatenation, and ``catsub`` probes the legs that the
per-leg gap already probed.  A ``ProbeCache`` per seed holds every probe
fitted so far under its key, the digest of the problem's bytes, so each
distinct problem is fitted once, and only the problems it does not hold
reach the solver.

The digests come from ``sha256``, CPython's built-in hash module (``_sha2``
from Python 3.12, ``_sha256`` before), as in the standard ``random``
module: ``hashlib`` would map OpenSSL's libcrypto into every run for two
digests.  ``hashlib.sha256``, which gives the same bytes, serves only a
build without those modules.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core_nn.layers import as_feature_matrix, as_labels
from .core_nn.losses import cross_entropy_loss, log_softmax
from .errors import DataError, ParameterError, ShapeError, check_bounds
from .rng import SplitMix64

try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

# ndarray.sum without its Python wrapper: the same reduction, called per step
_sum = np.add.reduce


@dataclass(frozen=True)
class ProbeConfig:
    l2: float = 0.0
    max_iters: int = 5000
    grad_tol: float = 1e-6
    standardize: bool = False

    def __post_init__(self):
        check_bounds("l2", self.l2, ge=0)
        check_bounds("max_iters", self.max_iters, ge=1, le=10**6)
        check_bounds("grad_tol", self.grad_tol, gt=0)


@dataclass
class ProbeResult:
    """One fitted probe; for a stack of ``E`` problems every field but
    ``converged`` and ``grad_tol`` gains a leading ``E`` axis, and
    ``result[e]`` is problem ``e`` as a single probe."""

    weights: np.ndarray        # (n_classes, n_features), applies to raw features
    bias: np.ndarray           # (n_classes,)
    cost: float                # achieved regularized objective
    train_accuracy: float
    converged: bool            # for a stack: every problem converged
    iterations: int = 0        # accepted gradient steps
    grad_norm: float = float("nan")  # gradient norm at the returned iterate
    grad_tol: float = float("nan")   # convergence tolerance on grad_norm

    def __getitem__(self, e: int) -> "ProbeResult":
        if self.weights.ndim != 3:
            raise ShapeError("only a stacked probe result holds problems to index")
        grad_norm = float(self.grad_norm[e])
        return ProbeResult(self.weights[e], self.bias[e], float(self.cost[e]),
                           float(self.train_accuracy[e]), bool(grad_norm <= self.grad_tol),
                           int(self.iterations[e]), grad_norm, self.grad_tol)

    def logits(self, features) -> np.ndarray:
        features = _as_features(features, self.weights.ndim == 3, "features")
        return features @ np.swapaxes(self.weights, -1, -2) + self.bias[..., None, :]

    def predict(self, features) -> np.ndarray:
        return self.logits(features).argmax(axis=-1)


@dataclass(frozen=True)
class InfoVerdict:
    relation: str              # contains_new_info | contains_all_info | equivalent
    cost_phi1: float
    cost_phi2: float
    cost_union: float
    margin: float


def _as_features(X, stacked: bool, name: str) -> np.ndarray:
    """Validated float64 features: ``(n, d)``, or ``(E, n, d)`` when ``stacked``."""
    if not stacked:
        return as_feature_matrix(X, name)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 3 or min(X.shape) < 1:
        raise ShapeError(f"{name} must be a nonempty (E, n, d) stack, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise DataError(f"{name} contains non-finite entries")
    return X


def _cost(W, b, X, flat_y, l2):
    """Objective of each problem of a stack, and the log-probabilities that
    its gradient needs.

    ``W`` is (E, k, d) and ``X`` (E, n, d); ``b`` and the objective keep
    singleton axes, (E, 1, k) and (E, 1, 1), so that per-problem scalars
    broadcast over the parameters.  ``flat_y``, shaped (E, n, 1), holds the
    position of each row's label in the flattened (E, n, k) logits.
    """
    n = X.shape[1]
    logp = log_softmax(X @ W.transpose(0, 2, 1) + b)
    data_sum = _sum(logp.take(flat_y), axis=1, keepdims=True)
    reg = 0.5 * l2 * _sum(W * W, axis=(1, 2), keepdims=True)
    # reg - sum/n equals -(sum/n) + reg bit for bit, with one pass less
    return reg - data_sum / n, logp


def _gradient(W, X, flat_y, logp, l2):
    """Gradients ``(gW, gb)`` of the objective at ``W`` from its log-probabilities.

    The logit gradient ``(softmax - onehot) / n`` takes -1 at the label
    positions ``flat_y`` of :func:`_cost` in place: no one-hot target."""
    D = np.exp(logp)
    D.reshape(-1)[flat_y] -= 1.0
    D /= X.shape[1]
    return D.transpose(0, 2, 1) @ X + l2 * W, _sum(D, axis=1, keepdims=True)


def _squared_grad_norm(gW, gb):
    return (_sum(gW * gW, axis=(1, 2), keepdims=True)
            + _sum(gb * gb, axis=(1, 2), keepdims=True))


def _descend(W, b, X, y, config: ProbeConfig):
    """Armijo gradient descent on a stack of problems, one line search each.

    Each round evaluates the whole stack, every problem at its own trial
    step, and only problems still searching take the result.  When every
    problem accepts its trial the new state is taken by reference; a
    problem stops once it converges or its step falls below 1e-20 (a
    stall).  Returns the final ``(W, b, f, squared gradient norm,
    accepted steps)`` per problem.
    """
    E, n, _ = X.shape
    k = W.shape[1]
    flat_y = (np.arange(E * n).reshape(E, n) * k + y)[..., None]  # y: (n,) or (E, n)
    l2, tol = config.l2, config.grad_tol
    f, logp = _cost(W, b, X, flat_y, l2)
    gW, gb = _gradient(W, X, flat_y, logp, l2)
    step = np.ones((E, 1, 1))
    live = np.ones(E, dtype=bool)      # neither converged nor stalled
    all_live = True
    steps = np.full(E, config.max_iters)
    for it in range(config.max_iters):
        gnorm2 = _squared_grad_norm(gW, gb)
        done = np.sqrt(gnorm2) <= tol
        # np.count_nonzero is a fraction of the cost of .any()/.all() on the
        # tiny per-problem arrays this loop tests every round
        if np.count_nonzero(done):
            stop = live & done.ravel()
            steps[stop] = it
            live = live & ~stop
            all_live = False
            if not np.count_nonzero(live):
                break
        t = step
        search = live
        whole = all_live               # every problem is still searching
        while True:
            logp = None  # the last trial's log-probabilities are spent: free them first
            W_new = W - t * gW
            b_new = b - t * gb
            f_new, logp = _cost(W_new, b_new, X, flat_y, l2)
            ok = f_new <= f - 1e-4 * t * gnorm2
            n_ok = np.count_nonzero(ok)
            # gradients are computed only for trials that some problem accepts
            if whole and n_ok == E:
                W, b, f = W_new, b_new, f_new
                gW, gb = _gradient(W, X, flat_y, logp, l2)
                step = np.minimum(1.0, 2.0 * t)
                break
            if whole and n_ok == 0:
                t = 0.5 * t
            else:
                whole = False
                acc = search & ok.ravel()
                if np.count_nonzero(acc):
                    gW_new, gb_new = _gradient(W_new, X, flat_y, logp, l2)
                    W[acc], b[acc], f[acc] = W_new[acc], b_new[acc], f_new[acc]
                    gW[acc], gb[acc] = gW_new[acc], gb_new[acc]
                    step = np.where(acc[:, None, None], np.minimum(1.0, 2.0 * t), step)
                    search = search & ~acc
                t = np.where(search[:, None, None], 0.5 * t, t)
            tiny = t < 1e-20
            if np.count_nonzero(tiny):
                stalled = search & tiny.ravel()
                whole = all_live = False
                steps[stalled] = it
                live = live & ~stalled
                search = search & ~stalled
            if not (whole or np.count_nonzero(search)):
                break
    return W, b, f, _squared_grad_norm(gW, gb), steps


def fit_probe(
    features,
    labels,
    config: ProbeConfig,
    rng: SplitMix64 | None = None,
    n_classes: int | None = None,
) -> ProbeResult:
    """Fit the optimal linear probe on frozen features.

    ``features`` is one problem ``(n, d)`` with labels ``(n,)``, or a stack
    of independent problems ``(E, n, d)`` that share one class count, with
    labels ``(E, n)`` or one ``(n,)`` row shared by every problem; each
    problem of a stack comes out as if fitted alone.  Without ``n_classes``
    the class count is the largest label plus one.
    ``rng`` seeds a small random initialization (used by the convexity
    restart checks), drawn problem after problem, so a stack matches
    separate calls that pass the same stream in turn; without it the
    solver starts from zero, which keeps the fit fully deterministic.  With
    ``standardize`` the solver works on per-feature standardized columns
    (std floor 1e-8) and the returned weights/bias are folded back to raw
    feature space.
    """
    stacked = np.ndim(features) == 3
    X = _as_features(features, stacked, "features")
    y = as_labels(labels, X.shape[:-1], np.inf if n_classes is None else n_classes)
    k = int(y.max()) + 1 if n_classes is None else int(n_classes)
    if not stacked:
        X = X[None]
    E, n, d = X.shape

    if config.standardize:
        mu = X.mean(axis=1, keepdims=True)
        sd = np.maximum(X.std(axis=1, keepdims=True), 1e-8)
        Xs = (X - mu) / sd
    else:
        mu = np.zeros((E, 1, d))
        sd = np.ones((E, 1, d))
        Xs = X

    if rng is None:
        W = np.zeros((E, k, d))
    else:
        W = np.stack([0.01 * rng.normal(k * d).reshape(k, d) for _ in range(E)])
    b = np.zeros((E, 1, k))
    W, b, f, gnorm2, steps = _descend(W, b, Xs, y, config)
    grad_norm = np.sqrt(gnorm2).ravel()

    # fold standardization back into raw-space parameters, problem by problem:
    # one stacked product would run as a matrix-matrix product, which may
    # round differently from the single problem's matrix-vector product
    W_raw = W / sd
    b_raw = np.stack([b[e, 0] - W_raw[e] @ mu[e, 0] for e in range(E)])

    train_acc = ((Xs @ W.transpose(0, 2, 1) + b).argmax(axis=2) == y).mean(axis=1)
    result = ProbeResult(W_raw, b_raw, f.ravel(), train_acc,
                         bool((grad_norm <= config.grad_tol).all()), steps, grad_norm,
                         config.grad_tol)
    return result if stacked else result[0]


@dataclass
class ProbeCache:
    """Probes fitted under one ``ProbeConfig``, so that an identical problem
    is fitted once.

    A problem's key is the sha256 of its feature bytes followed by its label
    bytes, with the feature shape and the class count.  Without an ``rng``,
    ``fit_probe`` is deterministic and a problem of a stack comes out as if
    fitted alone, so a held probe is the probe a refit would return however
    it was fitted.  Only digests and results are held, never features.
    """

    config: ProbeConfig
    probes: dict[tuple, ProbeResult] = field(default_factory=dict, init=False, repr=False)

    def key(self, features, labels, n_classes: int) -> tuple:
        """Key of the single problem ``(features, labels)`` with ``n_classes``."""
        X = np.ascontiguousarray(features, dtype=np.float64)
        digest = sha256(X)
        digest.update(np.ascontiguousarray(labels, dtype=np.int64))
        return digest.digest(), X.shape, int(n_classes)

    def fit(self, features, labels, n_classes: int) -> ProbeResult | list[ProbeResult]:
        """The probe of one ``(n, d)`` problem, or the list of probes of an
        ``(E, n, d)`` stack on one ``(n,)`` row of labels that its problems
        share, as :func:`fit_probe` takes them, each fitted unless held.

        A stack's members that are not held, a lone one included, are fitted
        as one stacked problem, each bit for bit as alone.  Pass a stack made
        for the call: only the members to fit stay alive through the solve.
        """
        if np.ndim(features) == 2:
            key = self.key(features, labels, n_classes)
            if key not in self.probes:
                self.probes[key] = fit_probe(features, labels, self.config, n_classes=n_classes)
            return self.probes[key]
        keys = [self.key(f, labels, n_classes) for f in features]
        miss = [i for i, key in enumerate(keys) if key not in self.probes]
        if miss:
            features = features[miss]
            stack = fit_probe(features, labels, self.config, n_classes=n_classes)
            for j, i in enumerate(miss):
                self.probes[keys[i]] = stack[j]
        return [self.probes[key] for key in keys]


def optimal_cost(features, labels, config: ProbeConfig, n_classes: int | None = None) -> float:
    """Achieved probing cost of the optimal linear classifier (deterministic)."""
    return fit_probe(features, labels, config, n_classes=n_classes).cost


def _feature_pair(phi1, phi2) -> tuple[np.ndarray, np.ndarray]:
    """``phi1`` and ``phi2`` as feature matrices over the same rows."""
    X1 = as_feature_matrix(phi1, "phi1")
    X2 = as_feature_matrix(phi2, "phi2")
    if X1.shape[0] != X2.shape[0]:
        raise ShapeError(f"row counts differ: {X1.shape[0]} vs {X2.shape[0]}")
    return X1, X2


def union_cost(phi1, phi2, labels, config: ProbeConfig) -> tuple[float, float, float]:
    """Probing costs ``(c1, c2, c_union)`` with the union as column concatenation."""
    X1, X2 = _feature_pair(phi1, phi2)
    c1 = optimal_cost(X1, labels, config)
    c2 = optimal_cost(X2, labels, config)
    c_union = optimal_cost(np.hstack([X1, X2]), labels, config)
    return c1, c2, c_union


def classify_information(phi1, phi2, labels, config: ProbeConfig,
                         margin: float = 0.01) -> InfoVerdict:
    """Decide how much linearly exploitable label information phi1 adds to phi2.

    The margin absorbs finite-sample solver noise: the union beating phi2
    by more than the margin reads as new information, agreement within
    the margin as phi2 already containing everything, and three-way
    agreement as equivalent information.
    """
    if margin < 0:
        raise ParameterError("margin must be nonnegative")
    c1, c2, c_union = union_cost(phi1, phi2, labels, config)
    if abs(c_union - c2) <= margin:
        relation = "equivalent" if abs(c_union - c1) <= margin else "contains_all_info"
    elif c_union < c2 - margin:
        relation = "contains_new_info"
    else:
        # union worse than phi2 beyond the margin: solver slack, treat as no new info
        relation = "contains_all_info"
    return InfoVerdict(relation, c1, c2, c_union, margin)


def mixture_cost(probe1: ProbeResult, probe2: ProbeResult, lam: float,
                 phi1, phi2, labels) -> float:
    """Unregularized expected loss of ``lam*f1 + (1-lam)*f2``."""
    if not (0.0 <= lam <= 1.0):
        raise ParameterError(f"lambda must lie in [0, 1], got {lam}")
    X1, X2 = _feature_pair(phi1, phi2)
    logits = lam * probe1.logits(X1) + (1.0 - lam) * probe2.logits(X2)
    return cross_entropy_loss(logits, labels)[0]

