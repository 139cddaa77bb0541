import numpy as np
import pytest

from richlab.errors import ParameterError, SamplingError
from richlab.probing import ProbeConfig, fit_probe
from richlab.rng import SplitMix64
from richlab.tasks import (
    Dataset,
    EpisodeSpec,
    ShiftSpec,
    gen_shift,
    pool,
    sample_episode,
    split_classes,
)


def small_spec(**over):
    base = dict(
        n_classes=4, d_core=4, d_spur=4, d_noise=3,
        core_scale=1.0, spur_scale=2.0, noise_std=0.5,
        env_correlations=(0.9, 0.8), ood_correlation=0.25, n_per_env=150,
    )
    base.update(over)
    return ShiftSpec(**base)


def test_gen_shift_shapes_and_envs():
    spec = small_spec()
    train, id_test, ood = gen_shift(spec, 7)
    assert len(train) == 2
    for e, ds in enumerate(train):
        assert ds.n == 150 and ds.d == 11
        assert set(np.unique(ds.env)) == {e}
    assert id_test.n == 300
    assert set(np.unique(ood.env)) == {2}


def test_gen_shift_deterministic():
    spec = small_spec()
    a = gen_shift(spec, 7)
    b = gen_shift(spec, 7)
    for x, y in zip(a[0] + [a[1], a[2]], b[0] + [b[1], b[2]]):
        assert np.array_equal(x.X, y.X)
        assert np.array_equal(x.y, y.y)


def test_perfect_correlation_ties_spurious_to_label():
    spec = small_spec(env_correlations=(1.0,), noise_std=0.0)
    train, _, _ = gen_shift(spec, 3)
    ds = train[0]
    spur = ds.X[:, spec.spur_slice]
    assert np.array_equal(spur.argmax(axis=1), ds.y)


def test_chance_correlation_matches_binomial():
    k = 4
    spec = small_spec(env_correlations=(1.0 / k,), noise_std=0.0, n_per_env=2000)
    train, _, _ = gen_shift(spec, 11)
    ds = train[0]
    spur_idx = ds.X[:, spec.spur_slice].argmax(axis=1)
    rate = (spur_idx == ds.y).mean()
    sigma = np.sqrt((1 / k) * (1 - 1 / k) / ds.n)
    assert abs(rate - 1 / k) <= 3 * sigma


def test_noiseless_core_is_separable():
    spec = small_spec(noise_std=0.0)
    train, _, _ = gen_shift(spec, 5)
    ds = train[0]
    core = ds.X[:, spec.core_slice]
    cost = fit_probe(core, ds.y, ProbeConfig(l2=0.0, max_iters=3000)).cost
    assert cost < 0.01


def test_spurious_probe_at_chance_on_ood():
    k = 4
    spec = small_spec(ood_correlation=1.0 / k, n_per_env=1500)
    train, _, ood = gen_shift(spec, 13)
    pooled = pool(train)
    probe = fit_probe(pooled.X[:, spec.spur_slice], pooled.y,
                      ProbeConfig(l2=1e-3, max_iters=1500))
    acc = float((probe.predict(ood.X[:, spec.spur_slice]) == ood.y).mean())
    sigma = np.sqrt((1 / k) * (1 - 1 / k) / ood.n)
    assert abs(acc - 1 / k) <= 3 * sigma


def test_shift_spec_validation():
    with pytest.raises(ParameterError):
        small_spec(d_core=2)  # fewer prototype dims than classes
    with pytest.raises(ParameterError):
        small_spec(env_correlations=())
    with pytest.raises(ParameterError):
        small_spec(ood_correlation=1.5)


# ---------------------------------------------------------------------------
# class splits

def ten_class_dataset(n=200, seed=1):
    rng = SplitMix64(seed)
    y = rng.integers(10, n)
    X = rng.normal(n * 3).reshape(n, 3)
    return Dataset(X, y, np.zeros(n, dtype=np.int64), 10)


def test_split_classes_reindexes_densely():
    ds = ten_class_dataset()
    base, novel = split_classes(ds, list(range(5)), list(range(5, 10)))
    assert base.n_classes == 5 and novel.n_classes == 5
    assert set(np.unique(base.y)) <= set(range(5))
    assert set(np.unique(novel.y)) <= set(range(5))
    assert base.n + novel.n == ds.n


def test_split_classes_rejects_overlap_and_empty():
    ds = ten_class_dataset()
    with pytest.raises(ParameterError):
        split_classes(ds, [0, 1], [1, 2])
    with pytest.raises(ParameterError):
        split_classes(ds, list(range(10)), [])


def test_split_preserves_row_order():
    ds = ten_class_dataset()
    base, _ = split_classes(ds, [0, 1, 2], [3, 4])
    mask = np.isin(ds.y, [0, 1, 2])
    assert np.array_equal(base.X, ds.X[mask])


# ---------------------------------------------------------------------------
# few-shot episode sampling

def test_episode_shapes():
    ds = ten_class_dataset(n=400)
    spec = EpisodeSpec(n_way=5, k_shot=1, n_query=15)
    support, query = sample_episode(ds, spec, SplitMix64(3))
    assert support.n == 5 and query.n == 75
    assert set(np.unique(support.y)) == set(range(5))


def test_episode_deterministic():
    ds = ten_class_dataset(n=400)
    spec = EpisodeSpec(n_way=5, k_shot=2, n_query=5)
    s1, q1 = sample_episode(ds, spec, SplitMix64(9))
    s2, q2 = sample_episode(ds, spec, SplitMix64(9))
    assert np.array_equal(s1.X, s2.X)
    assert np.array_equal(q1.X, q2.X)


def test_episode_support_query_disjoint_over_100_draws():
    ds = ten_class_dataset(n=500, seed=5)
    spec = EpisodeSpec(n_way=4, k_shot=3, n_query=4)
    rng = SplitMix64(17)
    for _ in range(100):
        support, query = sample_episode(ds, spec, rng)
        srows = {tuple(row) for row in support.X}
        qrows = {tuple(row) for row in query.X}
        assert not (srows & qrows)


def test_episode_insufficient_rows():
    ds = ten_class_dataset(n=30)
    spec = EpisodeSpec(n_way=5, k_shot=3, n_query=10)
    with pytest.raises(SamplingError):
        sample_episode(ds, spec, SplitMix64(1))
