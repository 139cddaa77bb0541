import numpy as np
import pytest

from richlab.rng import GAMMA, SplitMix64, derive_seed, mix64


def test_known_splitmix_stream():
    # reference values for seed 1234567 computed from the published
    # SplitMix64 recipe (state += 0x9E3779B97F4A7C15, then mix)
    rng = SplitMix64(1234567)
    first = [rng.next_u64() for _ in range(3)]
    expected = [mix64((1234567 + (k + 1) * GAMMA) & ((1 << 64) - 1)) for k in range(3)]
    assert first == expected


def test_scalar_and_vector_streams_agree():
    a = SplitMix64(42)
    b = SplitMix64(42)
    scalars = np.array([a.next_u64() for _ in range(17)], dtype=np.uint64)
    vector = b.u64(17)
    assert np.array_equal(scalars, vector)


def test_same_seed_same_stream():
    a = SplitMix64(7)
    b = SplitMix64(7)
    assert np.array_equal(a.random(100), b.random(100))


def test_random_in_unit_interval():
    u = SplitMix64(3).random(10_000)
    assert u.min() >= 0.0 and u.max() < 1.0


def test_normal_moments():
    z = SplitMix64(11).normal(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_normal_interleaves_pairs():
    rng = SplitMix64(5)
    z4 = rng.normal(4)
    rng2 = SplitMix64(5)
    z3 = rng2.normal(3)
    assert np.array_equal(z4[:3], z3)


def test_permutation_is_permutation():
    perm = SplitMix64(9).permutation(100)
    assert sorted(perm.tolist()) == list(range(100))


def test_permutation_deterministic():
    assert np.array_equal(SplitMix64(9).permutation(50), SplitMix64(9).permutation(50))


def test_integers_bound():
    vals = SplitMix64(13).integers(7, 1000)
    assert vals.min() >= 0 and vals.max() < 7


def test_integers_positive_bound_required():
    with pytest.raises(ValueError):
        SplitMix64(1).integers(0)


def test_derive_seed_distinct():
    children = {derive_seed(100, k) for k in range(1000)}
    assert len(children) == 1000


@pytest.mark.parametrize("seed, n, expected", [
    (0, 10, [6, 3, 2, 9, 8, 1, 4, 7, 0, 5]),
    (12345, 7, [1, 6, 4, 2, 0, 3, 5]),
    (2**64 - 1, 12, [3, 2, 4, 11, 7, 9, 5, 10, 0, 1, 6, 8]),
])
def test_permutation_frozen_vectors(seed, n, expected):
    # frozen outputs of the Fisher-Yates recipe in the module docstring;
    # every shuffle in the lab, and so every golden CSV, depends on them
    rng = SplitMix64(seed)
    perm = rng.permutation(n)
    assert perm.dtype == np.int64
    assert perm.tolist() == expected
    assert rng.next_u64() == SplitMix64(seed).u64(n)[-1]   # n - 1 draws used


def test_permutation_of_short_ranges():
    rng = SplitMix64(5)
    assert rng.permutation(0).tolist() == [] and rng.permutation(0).dtype == np.int64
    assert rng.permutation(1).tolist() == [0]
    assert rng.next_u64() == SplitMix64(5).next_u64()     # no draws used


def test_permutation_follows_the_docstring_recipe():
    # Fisher-Yates with next_u64() % (i + 1), from i = n - 1 down to 1
    for n in (2, 3, 25, 750, 900, 1500):
        for seed in (0, 1, 2**63 + 5):
            rng, ref = SplitMix64(seed), SplitMix64(seed)
            want = list(range(n))
            for i in range(n - 1, 0, -1):
                j = ref.next_u64() % (i + 1)
                want[i], want[j] = want[j], want[i]
            assert rng.permutation(n).tolist() == want
            assert rng.next_u64() == ref.next_u64()   # the stream is left in step
