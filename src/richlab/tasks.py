"""Data supply: synthetic shift generator, class splits and few-shot
episode sampling.

The synthetic generator builds inputs out of three blocks.  The core
block carries the label through a class prototype that is stable across
environments; the spurious block carries a *larger* prototype that
agrees with the label only with an environment-specific probability, so
it is the short cut in training environments and useless under the
out-of-distribution correlation; the noise block is pure noise.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_nn.layers import as_feature_matrix
from .errors import DataError, ParameterError, SamplingError, ShapeError
from .rng import SplitMix64


@dataclass
class Dataset:
    X: np.ndarray          # (n, d) float64
    y: np.ndarray          # (n,) int64 labels in [0, n_classes)
    env: np.ndarray        # (n,) int64 environment ids
    n_classes: int

    def __post_init__(self):
        self.X = as_feature_matrix(self.X)
        self.y = np.asarray(self.y, dtype=np.int64)
        self.env = np.asarray(self.env, dtype=np.int64)
        n = self.X.shape[0]
        if self.y.shape != (n,) or self.env.shape != (n,):
            raise ShapeError("X, y, env row counts disagree")
        if self.n_classes < 1:
            raise DataError("n_classes must be positive")
        if len(self.y) and (self.y.min() < 0 or self.y.max() >= self.n_classes):
            raise DataError(f"labels outside [0, {self.n_classes})")
        if len(self.env) and self.env.min() < 0:
            raise DataError("environment ids must be nonnegative")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def pool(datasets) -> Dataset:
    """Row-concatenate datasets (environment ids preserved)."""
    datasets = list(datasets)
    if not datasets:
        raise ParameterError("cannot pool zero datasets")
    k = max(ds.n_classes for ds in datasets)
    return Dataset(
        np.vstack([ds.X for ds in datasets]),
        np.concatenate([ds.y for ds in datasets]),
        np.concatenate([ds.env for ds in datasets]),
        k,
    )


@dataclass(frozen=True)
class ShiftSpec:
    n_classes: int
    d_core: int
    d_spur: int
    d_noise: int
    core_scale: float
    spur_scale: float
    noise_std: float
    env_correlations: tuple[float, ...]
    ood_correlation: float
    n_per_env: int

    def __post_init__(self):
        k = self.n_classes
        if k < 2:
            raise ParameterError("need at least 2 classes")
        if self.d_core < k or self.d_spur < k:
            raise ParameterError(
                "core and spurious blocks need one prototype dimension per class "
                f"(d_core={self.d_core}, d_spur={self.d_spur}, classes={k})"
            )
        if self.d_noise < 0:
            raise ParameterError("d_noise must be nonnegative")
        if self.core_scale <= 0 or self.spur_scale <= 0:
            raise ParameterError("prototype scales must be positive")
        if self.noise_std < 0:
            raise ParameterError("noise_std must be nonnegative")
        if not self.env_correlations:
            raise ParameterError("need at least one training environment")
        for rho in (*self.env_correlations, self.ood_correlation):
            if not (0.0 <= rho <= 1.0):
                raise ParameterError(f"correlations must lie in [0, 1], got {rho}")
        if self.n_per_env < 1:
            raise ParameterError("n_per_env must be positive")

    @property
    def d(self) -> int:
        return self.d_core + self.d_spur + self.d_noise

    @property
    def core_slice(self) -> slice:
        return slice(0, self.d_core)

    @property
    def spur_slice(self) -> slice:
        return slice(self.d_core, self.d_core + self.d_spur)

    @property
    def noise_slice(self) -> slice:
        return slice(self.d_core + self.d_spur, self.d)


def draw_env(spec: ShiftSpec, rho: float, n: int, env_id: int, rng: SplitMix64) -> Dataset:
    """``n`` rows of environment ``env_id`` at spurious correlation ``rho``,
    drawn from ``rng``."""
    k = spec.n_classes
    y = rng.integers(k, n)
    # spurious prototype index: the label with probability rho, else a
    # uniformly random *other* class
    flip = rng.random(n) >= rho
    other = rng.integers(k - 1, n)
    s = y.copy()
    s[flip] = (y[flip] + 1 + other[flip]) % k
    X = np.zeros((n, spec.d))
    X[:, spec.core_slice] = spec.noise_std * rng.normal(n * spec.d_core).reshape(n, spec.d_core)
    X[np.arange(n), y] += spec.core_scale
    X[:, spec.spur_slice] += spec.noise_std * rng.normal(n * spec.d_spur).reshape(n, spec.d_spur)
    X[np.arange(n), spec.d_core + s] += spec.spur_scale
    if spec.d_noise:
        X[:, spec.noise_slice] = spec.noise_std * rng.normal(n * spec.d_noise).reshape(n, spec.d_noise)
    return Dataset(X, y, np.full(n, env_id, dtype=np.int64), k)


def gen_shift(spec: ShiftSpec, seed: int) -> tuple[list[Dataset], Dataset, Dataset]:
    """Generate ``(train_envs, id_test, ood_test)`` deterministically from ``seed``.

    The in-distribution test pools the training correlations with
    ``n_per_env`` rows each; the OOD test uses ``ood_correlation``.
    """
    rng = SplitMix64(seed)
    train_envs = [
        draw_env(spec, rho, spec.n_per_env, e, rng)
        for e, rho in enumerate(spec.env_correlations)
    ]
    id_test = pool(
        draw_env(spec, rho, spec.n_per_env, e, rng)
        for e, rho in enumerate(spec.env_correlations)
    )
    ood_test = draw_env(spec, spec.ood_correlation, spec.n_per_env,
                        len(spec.env_correlations), rng)
    return train_envs, id_test, ood_test


# ---------------------------------------------------------------------------
# class splits and few-shot episodes

def split_classes(ds: Dataset, base_classes, novel_classes) -> tuple[Dataset, Dataset]:
    """Split by class sets; labels re-index densely in the given order."""
    base = list(dict.fromkeys(int(c) for c in base_classes))
    novel = list(dict.fromkeys(int(c) for c in novel_classes))
    if not base or not novel:
        raise ParameterError("both class sets must be nonempty")
    if set(base) & set(novel):
        raise ParameterError("base and novel class sets overlap")
    for c in base + novel:
        if not (0 <= c < ds.n_classes):
            raise ParameterError(f"class {c} outside [0, {ds.n_classes})")

    def take(classes) -> Dataset:
        remap = {c: i for i, c in enumerate(classes)}
        mask = np.isin(ds.y, classes)
        y = np.array([remap[int(c)] for c in ds.y[mask]], dtype=np.int64)
        return Dataset(ds.X[mask].copy(), y, ds.env[mask].copy(), len(classes))

    return take(base), take(novel)


@dataclass(frozen=True)
class EpisodeSpec:
    n_way: int = 5
    k_shot: int = 5
    n_query: int = 15

    def __post_init__(self):
        if min(self.n_way, self.k_shot, self.n_query) < 1:
            raise ParameterError("n_way, k_shot, n_query must all be positive")


def sample_episode(novel: Dataset, spec: EpisodeSpec, rng: SplitMix64) -> tuple[Dataset, Dataset]:
    """Draw one ``n_way``-way episode: disjoint support/query, labels in [0, n_way)."""
    # the labels are nonnegative; np.unique would import numpy.ma into the run
    classes = np.flatnonzero(np.bincount(novel.y))
    if spec.n_way > len(classes):
        raise SamplingError(
            f"{spec.n_way}-way episode needs {spec.n_way} classes, dataset has {len(classes)}"
        )
    chosen = classes[rng.permutation(len(classes))[: spec.n_way]]
    sup_idx, qry_idx, sup_y, qry_y = [], [], [], []
    need = spec.k_shot + spec.n_query
    for new_label, c in enumerate(chosen):
        rows = np.flatnonzero(novel.y == c)
        if len(rows) < need:
            raise SamplingError(
                f"class {int(c)} has {len(rows)} rows, episode needs {need}"
            )
        picked = rows[rng.permutation(len(rows))[:need]]
        sup_idx.extend(picked[: spec.k_shot])
        qry_idx.extend(picked[spec.k_shot:])
        sup_y.extend([new_label] * spec.k_shot)
        qry_y.extend([new_label] * spec.n_query)
    sup_idx = np.asarray(sup_idx)
    qry_idx = np.asarray(qry_idx)
    support = Dataset(novel.X[sup_idx].copy(), np.asarray(sup_y, dtype=np.int64),
                      novel.env[sup_idx].copy(), spec.n_way)
    query = Dataset(novel.X[qry_idx].copy(), np.asarray(qry_y, dtype=np.int64),
                    novel.env[qry_idx].copy(), spec.n_way)
    return support, query
