"""Property suites: gradient correctness, cost-of-union inequality,
mixture constancy, probe uniqueness, oracle agreement, exact algebra.

Each suite returns a :class:`SuiteResult`; ``run_all`` executes every
suite.  Seeds choose the random instances but never the verdicts.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import probing
from .core_nn import (
    CosineHead,
    DenseLayer,
    cosine_distill_loss,
    cosine_head_forward,
    cross_entropy_loss,
    distill_to_log_probs,
    init_network,
    layer_params,
    network_loss_grad,
    stack_forward,
    tempered_log_probs,
)
from .probing import ProbeConfig, fit_probe, mixture_cost
from .rng import SplitMix64, derive_seed


@dataclass
class SuiteResult:
    name: str
    passed: bool
    details: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        summary = f"{status} {self.name}"
        if self.failures:
            summary += f" ({len(self.failures)} failed checks)"
        return summary


# ---------------------------------------------------------------------------
# gradient suite

GRAD_LOSSES = ("ce", "kl_tau1", "kl_tau10", "ce_kl", "cosine")


def gradcheck_instance(seed: int, loss_name: str, sizes=(5, 7, 6, 4), n: int = 8):
    """Random net + data for a finite-difference check, kept away from relu kinks.

    Relu is non-differentiable at 0; an instance whose pre-activations
    come within 1e-3 of the kink (or, for the cosine loss, whose output
    rows come within 1e-3 of zero norm) would make central differences
    measure the kink rather than the gradient, so such draws are skipped.
    """
    k = sizes[-1]
    for attempt in range(200):
        s = derive_seed(seed, attempt)
        rng = SplitMix64(derive_seed(s, 1))
        net = init_network(sizes, seed=s)
        X = rng.normal(n * sizes[0]).reshape(n, sizes[0])
        teacher = 2.0 * rng.normal(n * k).reshape(n, k)
        y = rng.integers(k, n)
        acts = stack_forward(net.layers, X)
        # each hidden layer's pre-activation, recomputed from the activation it reads
        zs = (h @ layer.weights.T + layer.bias for layer, h in zip(net.layers[:-1], acts))
        min_pre = min((np.abs(z).min() for z in zs), default=np.inf)
        if min_pre <= 1e-3:
            continue
        if loss_name == "cosine" and np.linalg.norm(acts[-1], axis=1).min() <= 1e-3:
            continue
        return net, X, teacher, y
    raise RuntimeError("could not draw a kink-free gradcheck instance")


def _loss_fn(loss_name: str, teacher, y):
    """The loss training computes, with the teacher's targets formed once."""
    if loss_name == "ce":
        return lambda logits: cross_entropy_loss(logits, y)
    if loss_name == "cosine":
        return lambda logits: cosine_distill_loss(teacher, logits)
    tau, alpha = {"kl_tau1": (1.0, 1.0), "kl_tau10": (10.0, 1.0), "ce_kl": (4.0, 0.9)}[loss_name]
    targets = tempered_log_probs(teacher, tau)
    return lambda logits: distill_to_log_probs(*targets, logits, tau, y, alpha)


def max_grad_rel_error(net, X, loss_fn, n_coords: int = 100, seed: int = 0,
                       h: float = 1e-5) -> float:
    """Worst relative error between backprop and central finite differences.

    The sampled coordinates count through the entries of the
    :func:`layer_params` arrays in order.  Each is set in place in a clone
    to ``theta + h``, then to ``theta + h - 2 * h``, then back to ``theta``.
    """
    _, grads = network_loss_grad(net, X, loss_fn)
    probe = net.clone()
    entries = [(w, g, i) for (w, _), g in zip(layer_params(probe.layers), grads)
               for i in range(w.size)]
    worst = 0.0
    for c in SplitMix64(seed).integers(len(entries), n_coords):
        w, g, i = entries[c]
        theta = w.flat[i]
        w.flat[i] = theta + h
        fp, _ = network_loss_grad(probe, X, loss_fn)
        w.flat[i] = theta + h - 2 * h
        fm, _ = network_loss_grad(probe, X, loss_fn)
        w.flat[i] = theta
        fd = (fp - fm) / (2 * h)
        rel = abs(fd - g.flat[i]) / max(abs(fd), abs(g.flat[i]), 1e-5)
        worst = max(worst, rel)
    return worst


def _name_offset(name: str) -> int:
    return sum((i + 1) * b for i, b in enumerate(name.encode()))


def gradient_suite(seed: int = 0, n_coords: int = 100, tol: float = 1e-4) -> SuiteResult:
    details, failures = [], []
    for loss_name in GRAD_LOSSES:
        net, X, teacher, y = gradcheck_instance(derive_seed(seed, _name_offset(loss_name)),
                                                loss_name)
        worst = max_grad_rel_error(net, X, _loss_fn(loss_name, teacher, y),
                                   n_coords=n_coords, seed=seed)
        line = f"{loss_name}: max relative error {worst:.3g}"
        details.append(line)
        if not worst < tol:
            failures.append(line)
    return SuiteResult("gradient-vs-finite-differences", not failures, details, failures)


# ---------------------------------------------------------------------------
# random feature triples for the probing suites

def _random_features(rng: SplitMix64, n: int, d: int, y, k: int) -> np.ndarray:
    strength = rng.uniform(0.0, 2.0)
    proj = rng.normal(k * d).reshape(k, d)
    noise = rng.normal(n * d).reshape(n, d)
    return noise + strength * proj[y]


def proposition1_suite(seed: int = 0, n_trials: int = 50, slack: float = 1e-3) -> SuiteResult:
    """Union cost never exceeds either side's cost (plus solver slack)."""
    cfg = ProbeConfig(l2=1e-2, max_iters=2000, grad_tol=1e-8)
    details, failures = [], []
    for t in range(n_trials):
        rng = SplitMix64(derive_seed(seed, 1000 + t))
        n = 120
        k = 2 + int(rng.integers(2))
        y = rng.integers(k, n)
        d1 = 2 + int(rng.integers(5))
        d2 = 2 + int(rng.integers(5))
        phi1 = _random_features(rng, n, d1, y, k)
        phi2 = _random_features(rng, n, d2, y, k)
        c1, c2, cu = probing.union_cost(phi1, phi2, y, cfg)
        if not cu <= min(c1, c2) + slack:
            failures.append(
                f"trial {t}: c_union={cu:.6f} exceeds min(c1,c2)={min(c1, c2):.6f}+{slack}"
            )
    details.append(f"{n_trials - len(failures)}/{n_trials} random triples satisfied "
                   f"c_union <= min(c1, c2) + {slack}")
    return SuiteResult("cost-of-union-inequality", not failures, details, failures)


def theorem1_suite(seed: int = 0, n_instances: int = 20, tol: float = 2e-3) -> SuiteResult:
    """Mixtures of optimal probes over permutation-equivalent features cost the same.

    Column permutation preserves both the probe function class and the l2
    penalty exactly, so both sides share the unique regularized optimum
    and the mixture cost must be constant in the mixing weight.
    """
    cfg = ProbeConfig(l2=0.05, max_iters=3000, grad_tol=1e-9)
    lambdas = (0.0, 0.25, 0.5, 0.75, 1.0)
    details, failures = [], []
    for t in range(n_instances):
        rng = SplitMix64(derive_seed(seed, 2000 + t))
        n, d, k = 150, 6, 3
        y = rng.integers(k, n)
        phi1 = _random_features(rng, n, d, y, k)
        perm = rng.permutation(d)
        phi2 = phi1[:, perm]
        stack = fit_probe(np.stack([phi1, phi2]), y, cfg)  # one stack on shared labels
        p1, p2 = stack[0], stack[1]
        costs = [mixture_cost(p1, p2, lam, phi1, phi2, y) for lam in lambdas]
        spread = max(costs) - min(costs)
        if not spread <= tol:
            failures.append(f"instance {t}: mixture cost spread {spread:.3e} > {tol}")
    details.append(
        f"{n_instances - len(failures)}/{n_instances} permutation instances kept the "
        f"mixture cost constant within {tol} over lambdas {lambdas}"
    )
    return SuiteResult("mixture-constancy", not failures, details, failures)


def theorem2_suite(seed: int = 0, n_instances: int = 20, agree: float = 0.99) -> SuiteResult:
    """Two converged probes from different inits classify held-out data alike."""
    cfg = ProbeConfig(l2=1e-2, max_iters=5000, grad_tol=1e-6)
    details, failures = [], []
    rates = []
    for t in range(n_instances):
        rng = SplitMix64(derive_seed(seed, 3000 + t))
        n, d, k = 220, 6, 3
        y = rng.integers(k, n)
        phi = _random_features(rng, n, d, y, k)
        tr, te = slice(0, 160), slice(160, n)
        ra = SplitMix64(derive_seed(seed, 31000 + t))
        rb = SplitMix64(derive_seed(seed, 32000 + t))
        pa = fit_probe(phi[tr], y[tr], cfg, rng=ra)
        pb = fit_probe(phi[tr], y[tr], cfg, rng=rb)
        if not (pa.converged and pb.converged):
            failures.append(f"instance {t}: a probe failed to converge")
            continue
        rate = float((pa.predict(phi[te]) == pb.predict(phi[te])).mean())
        rates.append(rate)
        if not rate >= agree:
            failures.append(f"instance {t}: held-out agreement {rate:.4f} < {agree}")
    if rates:
        details.append(f"min held-out agreement {min(rates):.4f} over "
                       f"{n_instances} instances (threshold {agree})")
    return SuiteResult("probe-uniqueness-agreement", not failures, details, failures)


# ---------------------------------------------------------------------------
# grid-search oracle for 1-D probes

def scalar_grid_oracle(x_pos: np.ndarray, l2: float, lo: float = -10.0,
                       hi: float = 10.0, step: float = 1e-3) -> float:
    """Brute-force probing cost for class-symmetric 1-D two-class data.

    The dataset is {(x, 1)} for x in ``x_pos`` plus the mirrored
    {(-x, 0)}.  By symmetry the optimal bias difference is zero, and the
    penalty-optimal weights for a logit difference ``w*x`` are
    W = (-w/2, +w/2), so scanning the scalar ``w`` covers the whole
    function class: cost(w) = mean log(1+exp(-w x)) + (l2/2)(w^2/2).
    """
    grid = np.arange(lo, hi + step / 2, step)
    margins = np.outer(grid, x_pos)
    data = np.logaddexp(0.0, -margins).mean(axis=1)
    total = data + 0.25 * l2 * grid * grid
    return float(total.min())


def probe_oracle_suite(seed: int = 0, n_instances: int = 10, tol: float = 1e-3) -> SuiteResult:
    details, failures = [], []
    for t in range(n_instances):
        rng = SplitMix64(derive_seed(seed, 4000 + t))
        m = 3 + int(rng.integers(6))
        x_pos = rng.uniform(0.2, 2.0, m)
        l2 = float(rng.uniform(0.05, 0.5))
        X = np.concatenate([x_pos, -x_pos]).reshape(-1, 1)
        y = np.array([1] * m + [0] * m)
        cfg = ProbeConfig(l2=l2, max_iters=5000, grad_tol=1e-10)
        cost = fit_probe(X, y, cfg).cost
        oracle = scalar_grid_oracle(x_pos, l2)
        gap = abs(cost - oracle)
        if not gap <= tol:
            failures.append(f"instance {t}: |solver-oracle| = {gap:.3e} > {tol}")
    details.append(f"{n_instances - len(failures)}/{n_instances} instances matched the "
                   f"grid-search oracle within {tol}")
    return SuiteResult("probe-vs-grid-oracle", not failures, details, failures)


# ---------------------------------------------------------------------------
# exact algebra

def exact_algebra_suite(seed: int = 0) -> SuiteResult:
    from .experiments import _env_objective_fn
    from .richrep import concat_head_init

    details, failures = [], []
    rng = SplitMix64(derive_seed(seed, 5000))

    # cosine head: positive power-of-two rescaling is bitwise exact
    head = CosineHead(rng.normal(12).reshape(3, 4), rng.normal(3))
    z = rng.normal(4).reshape(1, 4)
    base = cosine_head_forward(z, head)
    bitwise = all(
        np.array_equal(cosine_head_forward(c * z, head), base)
        for c in (2.0, 0.5, 1024.0, 2.0**-30)
    )
    close = np.allclose(cosine_head_forward(3.0 * z, head), base, rtol=1e-12, atol=0)
    if not bitwise:
        failures.append("cosine head: power-of-two rescaling changed the logits")
    if not close:
        failures.append("cosine head: general positive rescaling drifted beyond 1e-12")
    details.append("cosine-head scale invariance: bitwise at powers of two, "
                   "<=1e-12 relative otherwise")

    # concatenated head init reproduces the mean of leg logits
    dims, k, n = (4, 3), 3, 12
    feats = [rng.normal(n * d).reshape(n, d) for d in dims]
    heads = [DenseLayer(rng.normal(k * d).reshape(k, d), rng.normal(k)) for d in dims]
    combined = concat_head_init([h.weights for h in heads], [h.bias for h in heads])
    concat = np.hstack(feats)
    got = concat @ combined.weights.T + combined.bias
    want = sum(f @ h.weights.T + h.bias for f, h in zip(feats, heads)) / len(heads)
    if not np.max(np.abs(got - want)) <= 1e-12:
        failures.append("concatenated head init differs from mean of leg logits")
    details.append("two-stage head init equals mean of leg logits within 1e-12")

    # the trainer's vREx objective at beta=0 is the plain mean of environment
    # risks; its own stream, so the self-distillation draw below does not move
    vrng = SplitMix64(derive_seed(seed, 5001))
    logits, y = 3.0 * vrng.normal(96).reshape(24, 4), vrng.integers(4, 24)
    env = vrng.permutation(24) % 3  # three interleaved environments of 8 rows
    risks = [cross_entropy_loss(logits[env == j], y[env == j])[0] for j in range(3)]
    if _env_objective_fn(y, env, 0.0, 4)(logits)[0] != float(np.mean(risks)):
        failures.append("vrex(beta=0) differs from the mean risk")
    details.append("vrex objective at beta=0 equals the mean risk exactly")

    # self-distillation is a fixed point
    t = 3.0 * rng.normal(15).reshape(3, 5)
    loss, grad = distill_to_log_probs(*tempered_log_probs(t, 7.0), t.copy(), 7.0)
    if not loss < 1e-10:
        failures.append(f"self-distillation loss {loss:.3e} >= 1e-10")
    if not float(np.linalg.norm(grad)) < 1e-8:
        failures.append("self-distillation gradient norm >= 1e-8")
    details.append("self-distillation loss < 1e-10 with gradient norm < 1e-8")

    return SuiteResult("exact-algebra", not failures, details, failures)


ALL_SUITES = (
    gradient_suite,
    proposition1_suite,
    theorem1_suite,
    theorem2_suite,
    probe_oracle_suite,
    exact_algebra_suite,
)


def run_all(seed: int = 0) -> list[SuiteResult]:
    return [suite(seed) for suite in ALL_SUITES]
