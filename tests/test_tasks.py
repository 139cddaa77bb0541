import numpy as np
import pytest

from richlab.errors import DataError, ParameterError, SamplingError, ShapeError
from richlab.probing import ProbeConfig, fit_probe, sha256
from richlab.rng import SplitMix64
from richlab.tasks import (
    Dataset,
    EpisodeSpec,
    ShiftSpec,
    gen_shift,
    pool,
    sample_episode,
    split_classes,
    split_point,
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
    # one dataset per training environment; the in-distribution test pools one per environment
    spec = small_spec()
    train, id_test, ood = gen_shift(spec, 7)
    assert len(train) == 2
    for ds in (*train, ood):
        assert (ds.n, ds.d, ds.n_classes) == (150, 11, 4)
    assert (id_test.n, id_test.d) == (300, 11)


def test_dataset_is_rows_labels_and_class_count():
    ds = Dataset(np.zeros((3, 2)), [0, 2, 1], 3)
    assert (ds.n, ds.d, ds.y.dtype) == (3, 2, np.int64)
    with pytest.raises(ShapeError):
        Dataset(np.zeros((3, 2)), [0, 1], 3)
    with pytest.raises(DataError):
        Dataset(np.zeros((3, 2)), [0, 1, 3], 3)


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
    return Dataset(X, y, 10)


def test_split_classes_reindexes_densely():
    ds = ten_class_dataset()
    base, novel = split_classes(ds)
    assert base.n_classes == 5 and novel.n_classes == 5
    assert set(np.unique(base.y)) <= set(range(5))
    assert set(np.unique(novel.y)) <= set(range(5))
    assert base.n + novel.n == ds.n


def test_split_classes_halves_are_disjoint_and_cover_every_row():
    ds = ten_class_dataset()
    base, novel = split_classes(ds)
    assert base.n > 0 and novel.n > 0
    assert np.array_equal(np.sort(np.concatenate([base.y, novel.y + 5])), np.sort(ds.y))


def test_split_preserves_row_order():
    ds = ten_class_dataset()
    base, novel = split_classes(ds)
    assert np.array_equal(base.X, ds.X[ds.y < 5])
    assert np.array_equal(base.y, ds.y[ds.y < 5])
    assert np.array_equal(novel.X, ds.X[ds.y >= 5])
    assert np.array_equal(novel.y, ds.y[ds.y >= 5] - 5)


def test_split_classes_of_an_odd_class_count_puts_the_extra_class_in_the_novel_half():
    rng = SplitMix64(4)
    y = rng.integers(5, 60)
    ds = Dataset(rng.normal(60 * 2).reshape(60, 2), y, 5)
    base, novel = split_classes(ds)
    assert (base.n_classes, novel.n_classes) == (2, 3)
    assert np.array_equal(base.y, y[y < 2])
    assert np.array_equal(novel.y, y[y >= 2] - 2)
    assert np.array_equal(novel.X, ds.X[y >= 2])
    assert split_point(5) == 2


@pytest.mark.parametrize("labels,side", [([0, 1, 1], "novel"), ([2, 3, 2], "base")])
def test_split_classes_refuses_a_side_with_no_row(labels, side):
    ds = Dataset(np.ones((3, 2)), labels, 4)
    with pytest.raises(ParameterError, match=f"the 3 rows of a 4-class split hold no row "
                                             f"of its {side} classes"):
        split_classes(ds)


def test_split_classes_refuses_fewer_than_two_classes():
    with pytest.raises(ParameterError, match="a class split needs at least 2 classes, got 1"):
        split_classes(Dataset(np.zeros((4, 2)), np.zeros(4), 1))


# ---------------------------------------------------------------------------
# few-shot episode sampling

def _check_episode(ds, spec, positions):
    """Positions are in range and distinct, so support and query are
    disjoint; every row of an episode holds the rows of one drawn class,
    the class of its label, and no two rows hold the same class."""
    assert positions.shape == (spec.n_way, spec.k_shot + spec.n_query)
    assert positions.dtype == np.int64
    assert positions.min() >= 0 and positions.max() < ds.n
    assert len(np.unique(positions)) == positions.size
    support, query = positions[:, :spec.k_shot], positions[:, spec.k_shot:]
    assert not set(support.ravel()) & set(query.ravel())
    classes = ds.y[positions]
    assert (classes == classes[:, :1]).all()
    assert len(set(classes[:, 0])) == spec.n_way


def test_episode_shapes():
    ds = ten_class_dataset(n=400)
    spec = EpisodeSpec(n_way=5, k_shot=1, n_query=15)
    positions = sample_episode(ds, spec, SplitMix64(3))
    _check_episode(ds, spec, positions)    # 5 support rows, 75 query rows


def test_episode_deterministic():
    ds = ten_class_dataset(n=400)
    spec = EpisodeSpec(n_way=5, k_shot=2, n_query=5)
    p1 = sample_episode(ds, spec, SplitMix64(9))
    p2 = sample_episode(ds, spec, SplitMix64(9))
    assert np.array_equal(p1, p2)
    _check_episode(ds, spec, p1)


def test_episode_support_query_disjoint_over_100_draws():
    ds = ten_class_dataset(n=500, seed=5)
    spec = EpisodeSpec(n_way=4, k_shot=3, n_query=4)
    rng = SplitMix64(17)
    for _ in range(100):
        _check_episode(ds, spec, sample_episode(ds, spec, rng))


def test_episode_positions_give_the_rows_and_labels_episodes_held_as_copies():
    # sha256 of the support and query rows and labels at fixed seeds,
    # recorded when sample_episode returned copies of the rows
    digest = sha256()
    for seed, spec in ((3, EpisodeSpec(5, 1, 15)), (9, EpisodeSpec(5, 2, 5)),
                       (17, EpisodeSpec(4, 3, 4))):
        ds = ten_class_dataset(n=500, seed=seed)
        rng = SplitMix64(seed)
        for _ in range(5):
            positions = sample_episode(ds, spec, rng)
            support = positions[:, :spec.k_shot].reshape(-1)
            query = positions[:, spec.k_shot:].reshape(-1)
            for a in (ds.X[support], np.repeat(np.arange(spec.n_way), spec.k_shot),
                      ds.X[query], np.repeat(np.arange(spec.n_way), spec.n_query)):
                digest.update(a.tobytes())
    assert digest.hexdigest() == (
        "55f85044e40c2fcdc8d5c591c96b8b34fc1904cdcb85e9ea223c5ec3bf184ed2")


@pytest.mark.parametrize("n_way,k_shot,n_query", [(1, 5, 15), (0, 5, 15), (5, 0, 15),
                                                 (5, 5, 0)])
def test_episode_spec_refuses_fewer_than_two_ways_and_empty_sides(n_way, k_shot, n_query):
    # a one-way episode has one label, so every classifier scores 1.0
    field = "n_way" if n_way < 2 else "k_shot" if k_shot < 1 else "n_query"
    with pytest.raises(ParameterError, match=f"^{field}: -?[0-9]+ is less than the minimum of"):
        EpisodeSpec(n_way, k_shot, n_query)
    EpisodeSpec(2, 1, 1)


def test_episode_insufficient_rows():
    ds = ten_class_dataset(n=30)
    spec = EpisodeSpec(n_way=5, k_shot=3, n_query=10)
    with pytest.raises(SamplingError):
        sample_episode(ds, spec, SplitMix64(1))
