"""Working-set guards on the steps where a run peaks.

The pinned transfer run reaches its peak in the per-leg probes of a
bank's features, a few-shot run in its stacked support solves, and every
training step goes through a stacked forward pass and a log-softmax.
tracemalloc counts numpy's buffers, so the peak it reports over one call
is the same on every run, unlike a process's resident set, which also
moves with the size of the loaded code.  Each bound is a small multiple
of the arrays the call cannot do without.
"""
import tracemalloc

import numpy as np

from richlab.core_nn.layers import extract_features
from richlab.core_nn.losses import log_softmax
from richlab.probing import ProbeCache, ProbeConfig
from richlab.richrep import RepresentationBank, init_trunk, leg_probe_gap, stack_nets
from richlab.rng import SplitMix64
from richlab.tasks import Dataset


def peak_bytes(fn, *args):
    """``(result, bytes)``: the call's result and its traced peak above the start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def bank_and_data():
    """A 5-member bank of one 16-wide relu layer, and 900 rows of 5 classes."""
    y = np.arange(900) % 5
    X = np.eye(5, 20)[y] + np.random.default_rng(0).standard_normal((900, 20))
    trunk = stack_nets([init_trunk([20, 16], SplitMix64(s)) for s in range(5)])
    return RepresentationBank(trunk), Dataset(X, y, 5)


def test_extract_features_keeps_one_array_per_relu_layer():
    bank, data = bank_and_data()
    assert bank.trunk.layers[0].activation == "relu"
    out, peak = peak_bytes(extract_features, bank.trunk, data.X)
    assert out.shape == (5, 900, 16)
    assert peak <= 1.25 * out.nbytes


def test_leg_probe_gap_holds_two_feature_stacks():
    # the call extracts the leg features itself, so extraction counts too
    bank, data = bank_and_data()
    cache = ProbeCache(ProbeConfig(l2=1e-3, max_iters=20, grad_tol=1e-7, standardize=True))
    (accs, _), peak = peak_bytes(leg_probe_gap, bank, data, cache)
    assert len(accs) == len(cache.probes) == 5  # no member was cached
    feature_stack = 5 * 900 * 16 * 8
    logit_stack = 5 * 900 * 5 * 8
    assert peak <= 2 * feature_stack + 5 * logit_stack


def test_log_softmax_peaks_below_three_inputs():
    z = np.random.default_rng(1).standard_normal((5, 900, 5))  # the column-chain path
    for tau in (1.0, 10.0):
        out, peak = peak_bytes(log_softmax, z, tau)
        assert out.shape == z.shape
        assert peak <= 3 * z.nbytes


def test_grouped_few_shot_solves_hold_one_bounded_block():
    # a solve holds at most EPISODE_BLOCK episodes' support features of the
    # widest width, here three 16-wide functions' worth, so 12 functions take
    # twice the solves of 6 and no more memory
    from richlab.experiments import EPISODE_BLOCK, FewshotConfig, episode_accuracies
    from richlab.tasks import EpisodeSpec, sample_episode

    rng = SplitMix64(5)
    novel = Dataset(rng.normal(600 * 16).reshape(600, 16), np.arange(600) % 5, 5)
    spec = EpisodeSpec(5, 5, 15)
    episodes = np.stack([sample_episode(novel, spec, rng) for _ in range(2 * EPISODE_BLOCK)])
    cfg = FewshotConfig(probe=ProbeConfig(l2=1e-3, max_iters=20, grad_tol=1e-6))
    fns = [lambda rows, j=j: (j + 1) * novel.X[rows] for j in range(12)]
    peaks = {}
    for n in (6, 12):
        accs, peaks[n] = peak_bytes(episode_accuracies, fns[:n], episodes, spec, cfg, 0, 3 * 16)
        assert accs.shape == (n, 2 * EPISODE_BLOCK)
    # the bounded block of support features, with room for one function's
    # features and the solver's logit and parameter stacks beside it
    block = EPISODE_BLOCK * 25 * 3 * 16 * 8
    assert peaks[12] <= peaks[6] + (16 << 10)
    assert peaks[12] <= 4 * block
