"""Deterministic 64-bit random number generation.

The generator is SplitMix64: the state advances by the golden-ratio
increment 0x9E3779B97F4A7C15 and each output is a finalizing mix of the
new state.  Draw k from seed s is therefore ``mix64(s + (k+1)*GAMMA)``,
which makes bulk draws vectorizable while staying identical to the
scalar stream.  Any implementation of the same recipe, in any language,
reproduces the streams bit for bit.

Derived quantities are defined on top of the raw u64 stream:

* doubles in [0, 1):      ``(u >> 11) * 2**-53``
* bounded ints in [0, n): ``u % n``  (bias is negligible for small n)
* unit normals:           Box-Muller on consecutive uniform pairs
                          (u1, u2) -> (sqrt(-2 ln(1-u1)) cos(2 pi u2),
                                       sqrt(-2 ln(1-u1)) sin(2 pi u2))
* shuffles:               Fisher-Yates, one bounded int per position,
                          walking from the last index down to 1

Sub-stream convention for a run seeded with ``s``: parameter
initialization uses seed ``s``, mini-batch shuffling uses ``s + 1``, and
data generation uses ``s + 2``.  Unrelated child seeds (per-episode
seeds, per-method seeds) come from :func:`derive_seed`.
"""
from __future__ import annotations

import numpy as np

GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1

_SHUFFLE_OFFSET = 1


def mix64(z: int) -> int:
    """SplitMix64 output mix of a 64-bit state value."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Child seed number ``index`` of ``seed`` (the raw SplitMix64 stream)."""
    return mix64((seed + (index + 1) * GAMMA) & _MASK)


class SplitMix64:
    """Stateful SplitMix64 stream over a 64-bit seed."""

    __slots__ = ("seed", "_pos")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK
        self._pos = 0

    def next_u64(self) -> int:
        self._pos += 1
        return mix64((self.seed + self._pos * GAMMA) & _MASK)

    def u64(self, n: int) -> np.ndarray:
        """Next ``n`` raw draws as a uint64 array (vectorized stream prefix)."""
        idx = np.arange(self._pos + 1, self._pos + n + 1, dtype=np.uint64)
        self._pos += n
        z = idx * np.uint64(GAMMA) + np.uint64(self.seed)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def random(self, n: int | None = None):
        """Doubles in [0, 1): scalar when ``n`` is None, else shape-(n,) array."""
        if n is None:
            return (self.next_u64() >> 11) * 2.0**-53
        return (self.u64(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def uniform(self, low: float, high: float, n: int | None = None):
        return low + (high - low) * self.random(n)

    def integers(self, bound: int, n: int | None = None):
        """Ints in [0, bound) via modulo reduction."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if n is None:
            return self.next_u64() % bound
        return (self.u64(n) % np.uint64(bound)).astype(np.int64)

    def normal(self, n: int | None = None):
        """Unit normals via Box-Muller on consecutive uniform pairs."""
        scalar = n is None
        m = 1 if scalar else int(n)
        pairs = (m + 1) // 2
        u = self.random(2 * pairs).reshape(pairs, 2)
        r = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
        theta = 2.0 * np.pi * u[:, 1]
        z = np.empty(2 * pairs)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        return float(z[0]) if scalar else z[:m]

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        if n < 2:
            return np.arange(n, dtype=np.int64)
        # One bounded draw per position, from the top index down to 1,
        # reduced in one array pass; the swaps run on Python ints, which is
        # exact and much cheaper than indexing numpy scalars.
        draws = (self.u64(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)).tolist()
        perm = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), draws):
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int64)


def shuffle_rng(seed: int) -> SplitMix64:
    """Stream for mini-batch shuffling of a run seeded with ``seed``."""
    return SplitMix64(seed + _SHUFFLE_OFFSET)
