"""Data supply: synthetic shift generator, class splits and few-shot
episode sampling; an episode is the positions of its rows in the novel
split, not a copy of them.

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
from .errors import DataError, ParameterError, SamplingError, ShapeError, check_bounds, check_items
from .rng import SplitMix64


@dataclass
class Dataset:
    X: np.ndarray          # (n, d) float64
    y: np.ndarray          # (n,) int64 labels in [0, n_classes)
    n_classes: int

    def __post_init__(self):
        self.X = as_feature_matrix(self.X)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.y.shape != (self.X.shape[0],):
            raise ShapeError("X and y row counts disagree")
        if self.n_classes < 1:
            raise DataError("n_classes must be positive")
        if len(self.y) and (self.y.min() < 0 or self.y.max() >= self.n_classes):
            raise DataError(f"labels outside [0, {self.n_classes})")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def pool(datasets) -> Dataset:
    """Row-concatenate datasets."""
    datasets = list(datasets)
    if not datasets:
        raise ParameterError("cannot pool zero datasets")
    return Dataset(np.vstack([ds.X for ds in datasets]),
                   np.concatenate([ds.y for ds in datasets]),
                   max(ds.n_classes for ds in datasets))


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
        check_bounds("n_classes", self.n_classes, ge=2)
        # the upper bounds, far above desk scale, refuse before any work the
        # sizes no array can hold and the scales whose draws overflow
        for name in ("d_core", "d_spur"):
            if getattr(self, name) < self.n_classes:
                raise ParameterError("a block needs one prototype dimension per class, got "
                                     f"{getattr(self, name)} for {self.n_classes} classes", name)
            check_bounds(name, getattr(self, name), le=10**4)
        check_bounds("d_noise", self.d_noise, ge=0, le=10**4)
        check_bounds("core_scale", self.core_scale, gt=0, le=10**6)
        check_bounds("spur_scale", self.spur_scale, gt=0, le=10**6)
        check_bounds("noise_std", self.noise_std, ge=0, le=10**6)
        check_items("env_correlations", self.env_correlations, ge=0, le=1)
        check_bounds("ood_correlation", self.ood_correlation, ge=0, le=1)
        check_bounds("n_per_env", self.n_per_env, ge=1, le=10**6)

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


def draw_env(spec: ShiftSpec, rho: float, n: int, rng: SplitMix64) -> Dataset:
    """``n`` rows of one environment at spurious correlation ``rho``, drawn
    from ``rng``."""
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
    return Dataset(X, y, k)


def gen_shift(spec: ShiftSpec, seed: int) -> tuple[list[Dataset], Dataset, Dataset]:
    """Generate ``(train_envs, id_test, ood_test)`` deterministically from ``seed``.

    The in-distribution test pools the training correlations with
    ``n_per_env`` rows each; the OOD test uses ``ood_correlation``.
    """
    rng = SplitMix64(seed)
    train_envs = [draw_env(spec, rho, spec.n_per_env, rng) for rho in spec.env_correlations]
    id_test = pool(draw_env(spec, rho, spec.n_per_env, rng) for rho in spec.env_correlations)
    ood_test = draw_env(spec, spec.ood_correlation, spec.n_per_env, rng)
    return train_envs, id_test, ood_test


# ---------------------------------------------------------------------------
# class splits and few-shot episodes

def split_point(n_classes: int) -> int:
    """The number of base classes of a class split: the first half of
    ``n_classes``; the novel classes are the rest."""
    if n_classes < 2:
        raise ParameterError(f"a class split needs at least 2 classes, got {n_classes}")
    return n_classes // 2


def split_classes(ds: Dataset) -> tuple[Dataset, Dataset]:
    """The rows of the base classes and those of the novel classes, each in
    row order; the novel labels start at 0.  Each side must hold a row."""
    cut = split_point(ds.n_classes)
    base = ds.y < cut
    if base.all() or not base.any():
        raise ParameterError(f"the {ds.n} rows of a {ds.n_classes}-class split hold no row "
                             f"of its {'novel' if base.all() else 'base'} classes")
    return (Dataset(ds.X[base], ds.y[base], cut),
            Dataset(ds.X[~base], ds.y[~base] - cut, ds.n_classes - cut))


@dataclass(frozen=True)
class EpisodeSpec:
    n_way: int = 5
    k_shot: int = 5
    n_query: int = 15

    def __post_init__(self):
        check_bounds("n_way", self.n_way, ge=2)
        check_bounds("k_shot", self.k_shot, ge=1)
        check_bounds("n_query", self.n_query, ge=1)


def sample_episode(novel: Dataset, spec: EpisodeSpec, rng: SplitMix64) -> np.ndarray:
    """Draw one ``n_way``-way episode: the positions in ``novel`` of its rows,
    as one ``(n_way, k_shot + n_query)`` array.

    Row j holds the rows of the j-th drawn class, which is label j of the
    episode: its ``k_shot`` support rows, then its ``n_query`` query rows,
    so support and query are disjoint.
    """
    # the labels are nonnegative; np.unique would import numpy.ma into the run
    classes = np.flatnonzero(np.bincount(novel.y))
    if spec.n_way > len(classes):
        raise SamplingError(
            f"{spec.n_way}-way episode needs {spec.n_way} classes, dataset has {len(classes)}"
        )
    chosen = classes[rng.permutation(len(classes))[: spec.n_way]]
    need = spec.k_shot + spec.n_query
    positions = np.empty((spec.n_way, need), dtype=np.int64)
    for label, c in enumerate(chosen):
        rows = np.flatnonzero(novel.y == c)
        if len(rows) < need:
            raise SamplingError(
                f"class {int(c)} has {len(rows)} rows, episode needs {need}"
            )
        positions[label] = rows[rng.permutation(len(rows))[:need]]
    return positions
