import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richlab.errors import DataError, ParameterError, ShapeError
from richlab.probing import (
    InfoVerdict,
    ProbeCache,
    ProbeConfig,
    classify_information,
    fit_probe,
    mixture_cost,
    union_cost,
)
from richlab.rng import SplitMix64
from richlab.verify import scalar_grid_oracle

TIGHT = ProbeConfig(l2=0.0, max_iters=5000, grad_tol=1e-8)


def informative_features(seed, n=150, d=5, k=3, strength=1.5):
    rng = SplitMix64(seed)
    y = rng.integers(k, n)
    proj = rng.normal(k * d).reshape(k, d)
    X = rng.normal(n * d).reshape(n, d) + strength * proj[y]
    return X, y


def noisy_features(seed, n=300, d=5, k=3):
    """Non-separable instance: the unregularized optimum is finite, so the
    solver can actually reach it and cost comparisons are meaningful."""
    return informative_features(seed, n=n, d=d, k=k, strength=0.6)


def test_two_point_separable_cost_vanishes():
    X = np.array([[-1.0], [1.0]])
    y = np.array([0, 1])
    res = fit_probe(X, y, TIGHT)
    assert res.cost < 0.01
    assert res.train_accuracy == 1.0


def test_zero_features_balanced_cost_is_log_k():
    X = np.zeros((30, 4))
    X[:, :] = 0.0
    y = np.tile(np.arange(3), 10)
    # zero features admit only the bias; balanced labels pin it at uniform
    res = fit_probe(X + 0.0, y, ProbeConfig(l2=0.0, max_iters=200))
    assert res.cost == pytest.approx(np.log(3), abs=1e-9)


def test_spec_four_point_instance_matches_grid_oracle():
    X = np.array([[-1.0], [-1.0], [1.0], [1.0]])
    y = np.array([0, 0, 1, 1])
    cost = fit_probe(X, y, ProbeConfig(l2=0.1, max_iters=5000, grad_tol=1e-10)).cost
    oracle = scalar_grid_oracle(np.array([1.0, 1.0]), l2=0.1)
    assert abs(cost - oracle) <= 1e-3


def test_nonfinite_features_rejected():
    X = np.array([[1.0], [np.nan]])
    with pytest.raises(DataError):
        fit_probe(X, np.array([0, 1]), TIGHT)


@pytest.mark.parametrize("field,value", [
    ("l2", float("nan")), ("l2", float("inf")), ("l2", -1e-3),
    ("grad_tol", float("nan")), ("grad_tol", float("inf")), ("grad_tol", 0.0),
])
def test_probe_config_rejects_bad_l2_and_grad_tol(field, value):
    # NaN passes every comparison-based check and an infinite grad_tol
    # accepts the untrained zero probe, so both must be refused by name
    with pytest.raises(ParameterError, match=field):
        ProbeConfig(**{field: value})


def test_duplicate_columns_cost_close():
    X, y = noisy_features(1)
    cfg = ProbeConfig(l2=1e-4, max_iters=5000, grad_tol=1e-9)
    base = fit_probe(X, y, cfg).cost
    dup = fit_probe(np.hstack([X, X]), y, cfg).cost
    assert dup <= base + 1e-6          # splitting l2 across copies can only help
    assert abs(dup - base) <= 1e-3


def test_zero_column_does_not_change_cost():
    X, y = informative_features(2)
    base = fit_probe(X, y, TIGHT).cost
    padded = fit_probe(np.hstack([X, np.zeros((X.shape[0], 1))]), y, TIGHT).cost
    assert abs(padded - base) <= 1e-6


def test_column_permutation_keeps_cost():
    X, y = informative_features(3)
    perm = SplitMix64(99).permutation(X.shape[1])
    base = fit_probe(X, y, TIGHT).cost
    permuted = fit_probe(X[:, perm], y, TIGHT).cost
    assert abs(permuted - base) <= 1e-10


def test_union_cost_with_self():
    X, y = noisy_features(4)
    c1, c2, cu = union_cost(X, X, y, ProbeConfig(l2=0.0, max_iters=5000, grad_tol=1e-9))
    assert c1 == c2
    assert abs(cu - c1) <= 1e-6


def test_union_informative_plus_noise():
    rng = SplitMix64(5)
    n = 200
    y = rng.integers(2, n)
    signal = (2.0 * y - 1.0).reshape(-1, 1) + 0.1 * rng.normal(n).reshape(-1, 1)
    noise = rng.normal(n * 3).reshape(n, 3)
    cfg = ProbeConfig(l2=1e-2, max_iters=3000, grad_tol=1e-8)
    c1, c2, cu = union_cost(signal, noise, y, cfg)
    assert c1 < c2
    assert cu <= c1 + 1e-3


def test_union_rejects_row_mismatch():
    with pytest.raises(ShapeError):
        union_cost(np.zeros((3, 2)), np.zeros((4, 2)), np.array([0, 1, 0]), TIGHT)


def test_union_inequality_random_sweep():
    cfg = ProbeConfig(l2=1e-2, max_iters=2000, grad_tol=1e-8)
    for t in range(10):
        Xa, y = informative_features(100 + t, n=100, d=3)
        Xb, _ = informative_features(200 + t, n=100, d=4)
        c1, c2, cu = union_cost(Xa, Xb[: len(y)], y, cfg)
        assert cu <= min(c1, c2) + 1e-3


# ---------------------------------------------------------------------------
# information verdicts

def test_equivalent_under_invertible_map():
    X, y = informative_features(6, n=200, d=4)
    rng = SplitMix64(7)
    M = rng.normal(16).reshape(4, 4) + 2.0 * np.eye(4)  # well-conditioned
    assert np.linalg.cond(M) < 50
    cfg = ProbeConfig(l2=1e-4, max_iters=4000, grad_tol=1e-8)
    verdict = classify_information(X, X @ M, y, cfg, margin=0.01)
    assert verdict.relation == "equivalent"


def test_informative_vs_noise_is_new_info():
    rng = SplitMix64(8)
    n = 200
    y = rng.integers(2, n)
    signal = (2.0 * y - 1.0).reshape(-1, 1) + 0.1 * rng.normal(n).reshape(-1, 1)
    noise = rng.normal(n * 3).reshape(n, 3)
    cfg = ProbeConfig(l2=1e-3, max_iters=3000, grad_tol=1e-8)
    verdict = classify_information(signal, noise, y, cfg, margin=0.01)
    assert verdict.relation == "contains_new_info"


def test_identical_features_equivalent_at_any_margin():
    # "any margin" down to solver precision: the three problems share one
    # finite optimum, so even a near-zero margin yields the same verdict
    X, y = noisy_features(9)
    cfg = ProbeConfig(l2=0.0, max_iters=5000, grad_tol=1e-9)
    for margin in (1e-5, 0.01, 0.5):
        verdict = classify_information(X, X, y, cfg, margin=margin)
        assert verdict.relation == "equivalent"


def test_negative_margin_rejected():
    X, y = informative_features(10)
    with pytest.raises(ParameterError):
        classify_information(X, X, y, TIGHT, margin=-0.1)


# ---------------------------------------------------------------------------
# mixtures

def test_mixture_boundaries():
    X, y = informative_features(11)
    perm = SplitMix64(12).permutation(X.shape[1])
    X2 = X[:, perm]
    cfg = ProbeConfig(l2=0.05, max_iters=3000, grad_tol=1e-9)
    p1 = fit_probe(X, y, cfg)
    p2 = fit_probe(X2, y, cfg)
    at_one = mixture_cost(p1, p2, 1.0, X, X2, y)
    at_zero = mixture_cost(p1, p2, 0.0, X, X2, y)
    half = mixture_cost(p1, p2, 0.5, X, X2, y)
    assert abs(at_one - at_zero) <= 1e-3
    assert abs(half - at_one) <= 1e-3


def test_mixture_lambda_out_of_range():
    X, y = informative_features(13)
    p = fit_probe(X, y, TIGHT)
    with pytest.raises(ParameterError):
        mixture_cost(p, p, 1.5, X, X, y)


# ---------------------------------------------------------------------------
# solver behavior

def test_convex_restarts_agree():
    X, y = informative_features(14, n=120, d=4)
    cfg = ProbeConfig(l2=1e-2, max_iters=5000, grad_tol=1e-8)
    costs = [fit_probe(X, y, cfg, rng=SplitMix64(1000 + r)).cost for r in range(10)]
    assert max(costs) - min(costs) <= 1e-4


def test_standardize_matches_raw_at_l2_zero():
    X, y = noisy_features(15)
    X = X * np.array([1.0, 3.0, 0.5, 2.0, 1.0]) + np.array([0, 3, -2, 0, 1])
    raw = fit_probe(X, y, ProbeConfig(l2=0.0, max_iters=5000, grad_tol=1e-9))
    std = fit_probe(X, y, ProbeConfig(l2=0.0, max_iters=5000, grad_tol=1e-9,
                                      standardize=True))
    assert abs(raw.cost - std.cost) <= 1e-3
    # folded-back weights act on raw features
    assert np.array_equal(std.predict(X),
                          (X @ std.weights.T + std.bias).argmax(axis=1))


def test_converged_flag_reflects_grad_tol():
    X, y = informative_features(17, n=80, d=3)
    loose = fit_probe(X, y, ProbeConfig(l2=1e-2, max_iters=5000, grad_tol=1e-6))
    assert loose.converged
    starved = fit_probe(X, y, ProbeConfig(l2=1e-2, max_iters=2, grad_tol=1e-12))
    assert not starved.converged


# ---------------------------------------------------------------------------
# stacked problems

def assert_same_probe(a, b):
    """Two probe results agree bit for bit, field by field and type by type."""
    assert a.weights.tobytes() == b.weights.tobytes() and a.weights.shape == b.weights.shape
    assert a.bias.tobytes() == b.bias.tobytes() and a.bias.shape == b.bias.shape
    for name in ("cost", "train_accuracy", "converged", "iterations", "grad_norm", "grad_tol"):
        x, y = getattr(a, name), getattr(b, name)
        assert type(x) is type(y) and (x == y or (x != x and y != y)), name


def _problem_stack(seed, E, n, d, k, scales):
    """E problems of shape (n, d) with labels in [0, k); problem e scaled by scales[e]."""
    rng = SplitMix64(seed)
    y = rng.integers(k, E * n).reshape(E, n)
    X = rng.normal(E * n * d).reshape(E, n, d) + rng.normal(k * d).reshape(k, d)[y]
    return X * np.asarray(scales, dtype=float).reshape(E, 1, 1), y


def _assert_stack_matches_separate(X, y, k, cfg, rng_seed=None):
    E = X.shape[0]
    rng = None if rng_seed is None else SplitMix64(rng_seed)
    stacked = fit_probe(X, y, cfg, rng=rng, n_classes=k)
    rng = None if rng_seed is None else SplitMix64(rng_seed)
    alone = [fit_probe(X[e], y[e], cfg, rng=rng, n_classes=k) for e in range(E)]
    for e, one in enumerate(alone):
        assert np.array_equal(stacked.weights[e], one.weights)
        assert np.array_equal(stacked.bias[e], one.bias)
        assert stacked.cost[e] == one.cost
        assert stacked.train_accuracy[e] == one.train_accuracy
        assert stacked.iterations[e] == one.iterations
        assert stacked.grad_norm[e] == one.grad_norm
        assert (stacked.grad_norm[e] <= cfg.grad_tol) == one.converged
        assert_same_probe(stacked[e], one)
    assert stacked.converged == all(one.converged for one in alone)
    return stacked


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32), E=st.integers(1, 4), n=st.integers(1, 12),
       d=st.integers(1, 5), k=st.integers(1, 4),
       log_scales=st.lists(st.floats(-4.0, 3.0) | st.floats(10.0, 12.0),
                           min_size=4, max_size=4),
       l2=st.sampled_from([0.0, 1e-3, 0.1]), log_tol=st.floats(-8.0, -1.0),
       max_iters=st.integers(1, 60), standardize=st.booleans(),
       rng_seed=st.none() | st.integers(0, 1000))
def test_stacked_fit_equals_separate_fits(seed, E, n, d, k, log_scales, l2, log_tol,
                                          max_iters, standardize, rng_seed):
    # scales of 1e10 and more make the Armijo search stall (no step above
    # 1e-20 decreases the objective); tiny scales and loose tolerances let
    # some problems of a stack converge while the others go on
    X, y = _problem_stack(seed, E, n, d, k, [10.0 ** s for s in log_scales[:E]])
    cfg = ProbeConfig(l2=l2, max_iters=max_iters, grad_tol=10.0 ** log_tol,
                      standardize=standardize)
    _assert_stack_matches_separate(X, y, k, cfg, rng_seed)


def test_stack_mixes_convergence_stall_and_budget_end():
    # near-zero features leave only the bias to fit, so that problem
    # converges; 1e12-scaled features stall; unit-scaled features run out
    # of iterations.  Each problem matches its own solve bit for bit.
    X, y = _problem_stack(31, 3, 30, 4, 3, [1e-4, 1e12, 1.0])
    cfg = ProbeConfig(l2=1e-3, max_iters=100, grad_tol=1e-3)
    res = _assert_stack_matches_separate(X, y, 3, cfg)
    converged = res.grad_norm <= cfg.grad_tol
    assert converged[0] and res.iterations[0] < cfg.max_iters
    assert not converged[1] and res.iterations[1] < cfg.max_iters
    assert not converged[2] and res.iterations[2] == cfg.max_iters
    assert not res.converged


def test_probe_reports_iterations_and_grad_norm():
    X, y = informative_features(17, n=80, d=3)
    cfg = ProbeConfig(l2=1e-2, max_iters=5000, grad_tol=1e-6)
    loose = fit_probe(X, y, cfg)
    assert isinstance(loose.iterations, int) and isinstance(loose.grad_norm, float)
    assert 0 < loose.iterations < cfg.max_iters and loose.grad_norm <= cfg.grad_tol
    starved = fit_probe(X, y, ProbeConfig(l2=1e-2, max_iters=2, grad_tol=1e-12))
    assert starved.iterations == 2 and starved.grad_norm > 1e-12

    stack = np.stack([X, X[::-1], 2.0 * X])
    labels = np.stack([y, y[::-1], y])
    res = fit_probe(stack, labels, cfg)
    assert res.weights.shape == (3, 3, 3) and res.bias.shape == (3, 3)
    for field in (res.cost, res.train_accuracy, res.iterations, res.grad_norm):
        assert field.shape == (3,)
    assert res.converged is True
    assert res.iterations[0] == loose.iterations and res.grad_norm[0] == loose.grad_norm
    assert res.predict(stack).shape == (3, 80)
    assert np.array_equal(res.predict(stack)[1], fit_probe(X[::-1], y[::-1], cfg).predict(X[::-1]))


def test_stacked_input_validation():
    # a stack takes its labels as the losses do: one (n,) row shared by every
    # problem gives the bytes of that row broadcast to (E, n) and of each
    # problem fitted alone
    X, y = _problem_stack(5, 3, 20, 3, 3, [1.0, 0.5, 2.0])
    cfg = ProbeConfig(l2=1e-3, max_iters=300, grad_tol=1e-6)
    shared = fit_probe(X, y[0], cfg)
    broadcast = fit_probe(X, np.broadcast_to(y[0], y.shape), cfg)
    assert shared.converged == broadcast.converged
    for e in range(len(X)):
        assert_same_probe(shared[e], broadcast[e])
        assert_same_probe(shared[e], fit_probe(X[e], y[0], cfg))
    for wrong in (np.zeros(21, dtype=int), np.zeros((4, 20), dtype=int)):
        with pytest.raises(ShapeError, match="labels must be shape"):
            fit_probe(X, wrong, cfg)
    X = np.zeros((2, 4, 3))
    with pytest.raises(ShapeError):
        fit_probe(np.zeros((2, 0, 3)), np.zeros((2, 0), dtype=int), TIGHT)
    with pytest.raises(DataError):
        fit_probe(np.full((2, 4, 3), np.nan), np.zeros((2, 4), dtype=int), TIGHT)
    single = fit_probe(X[0], np.zeros(4, dtype=int), TIGHT)
    with pytest.raises(ShapeError):
        single[0]


# ---------------------------------------------------------------------------
# probe cache

def _count_fits(monkeypatch, *modules):
    """Record the feature shape of every ``fit_probe`` call made through ``modules``."""
    from richlab import probing

    shapes = []

    def counted(features, *args, **kwargs):
        shapes.append(np.shape(features))
        return fit_probe(features, *args, **kwargs)

    for module in (probing, *modules):
        monkeypatch.setattr(module, "fit_probe", counted)
    return shapes


def test_cache_hit_fits_nothing_and_returns_the_held_probe(monkeypatch):
    X, y = informative_features(3, n=60, d=4)
    cache = ProbeCache(TIGHT)
    shapes = _count_fits(monkeypatch)
    first = cache.fit(X, y, 3)
    assert shapes == [(60, 4)]
    # equal bytes hit, whatever array holds them
    again = cache.fit(np.asfortranarray(X), y.astype(np.int32), 3)
    assert again is first and shapes == [(60, 4)]
    assert_same_probe(first, fit_probe(X, y, TIGHT, n_classes=3))


def test_cache_request_mixing_held_and_new_problems(monkeypatch):
    from richlab.core_nn import extract_features, init_network
    from richlab.richrep import stack_nets

    X, y = informative_features(8, n=120, d=5)
    nets = [init_network([5, 8], 20 + i) for i in range(5)]
    trunk = stack_nets(nets)
    feats = [extract_features(net, X) for net in nets]
    cfg = ProbeConfig(l2=1e-3, max_iters=200, grad_tol=1e-7, standardize=True)
    cache = ProbeCache(cfg)
    held = [cache.fit(feats[i], y, 3) for i in (0, 4)]
    shapes = _count_fits(monkeypatch)
    probes = cache.fit(extract_features(trunk, X), y, 3)
    # legs 1 to 3 miss and are fitted as one stack
    assert shapes == [(3, 120, 8)]
    assert probes[0] is held[0] and probes[4] is held[1]
    for f, probe in zip(feats, probes, strict=True):
        assert_same_probe(probe, fit_probe(f, y, cfg, n_classes=3))
    again = cache.fit(extract_features(trunk, X), y, 3)
    assert all(a is b for a, b in zip(again, probes, strict=True)) and len(shapes) == 1
    # a lone miss is a stack of one
    del cache.probes[cache.key(feats[2], y, 3)]
    lone = cache.fit(extract_features(trunk, X), y, 3)
    assert shapes[1:] == [(1, 120, 8)]
    assert [a is b for a, b in zip(lone, probes, strict=True)] == [True, True, False, True, True]
    assert_same_probe(lone[2], probes[2])


def test_sha256_is_the_built_in_module_and_digests_as_hashlib_does():
    import hashlib
    import importlib.util

    from richlab.probing import sha256

    built_in = [m for m in ("_sha2", "_sha256") if importlib.util.find_spec(m)]
    if built_in:
        assert sha256.__module__ == built_in[0]
    # what ProbeCache.key hashes: a float64 leg slice of a stack, then int64 labels
    legs = SplitMix64(3).normal(600).reshape(3, 50, 4)
    y = np.arange(50) % 3
    digest = sha256(legs[1])
    digest.update(y.astype(np.int64))
    want = hashlib.sha256(legs[1].tobytes() + y.astype(np.int64).tobytes()).digest()
    assert digest.digest() == want
    assert ProbeCache(TIGHT).key(legs[1], y.astype(np.int32), 3) == (want, (50, 4), 3)


def _bytes_twins():
    """Two problems whose feature bytes followed by label bytes are equal."""
    y2 = np.array([0, 1, 0, 1])
    X2 = np.array([[0.5], [-1.0], [2.0], [0.25]])
    X1 = np.concatenate([X2.ravel(), y2[:2].view(np.float64)]).reshape(2, 3)
    y1 = y2[2:]
    assert X1.tobytes() + y1.tobytes() == X2.tobytes() + y2.tobytes()
    return (X1, y1, 2), (X2, y2, 2)


@pytest.mark.parametrize("change", ["shape", "labels", "n_classes"])
def test_cache_misses_on_other_shape_labels_or_class_count(monkeypatch, change):
    X, y = informative_features(5, n=40, d=3)
    first, second = {
        "shape": _bytes_twins(),
        "labels": ((X, y, 3), (X, np.roll(y, 1), 3)),
        "n_classes": ((X, y, 3), (X, y, 4)),
    }[change]
    cache = ProbeCache(TIGHT)
    shapes = _count_fits(monkeypatch)
    a, b = cache.fit(*first), cache.fit(*second)
    assert len(shapes) == 2 and len(cache.probes) == 2
    assert_same_probe(b, fit_probe(second[0], second[1], TIGHT, n_classes=second[2]))
    assert cache.fit(*first) is a and cache.fit(*second) is b and len(shapes) == 2
