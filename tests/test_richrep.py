import re
from dataclasses import replace

import numpy as np
import pytest

from richlab.core_nn import (
    DenseLayer,
    Network,
    Schedule,
    TrainConfig,
    extract_features,
    init_network,
    layer_params,
    train,
)
from richlab.core_nn.layers import glorot_layer
from richlab.errors import EpisodeError, ParameterError, ShapeError, TrainingError
from richlab.probing import ProbeCache, ProbeConfig, fit_probe, optimal_cost
from richlab.richrep import (
    DistillSpec,
    RepresentationBank,
    bank_head_accuracy,
    bank_head_logits,
    cat_features,
    concat_head_init,
    distill,
    init_trunk,
    joint_train,
    leg_logits,
    leg_probe_gap,
    naive_finetune,
    snapshot_episode,
    stack_nets,
    subset_ensemble_predict,
    train_episodes,
    two_stage_finetune,
)
from richlab.rng import SplitMix64, derive_seed
from richlab.tasks import Dataset

CFG = TrainConfig(lr=0.05, epochs=12, batch_size=16, momentum=0.9, seed=0)
PROBE = ProbeConfig(l2=1e-3, max_iters=1500, grad_tol=1e-7, standardize=True)


def toy_data(n=120, d=6, k=3, seed=2):
    rng = SplitMix64(seed)
    y = rng.integers(k, n)
    proto = 1.5 * np.eye(k, d)
    X = proto[y] + 0.4 * rng.normal(n * d).reshape(n, d)
    return Dataset(X, y, k)


def trunks_equal(a, b):
    """Equal entries in every parameter array: a one-member stack equals its plain net."""
    return all(np.array_equal(p.ravel(), q.ravel()) for (p, _), (q, _) in
               zip(layer_params(a.layers), layer_params(b.layers), strict=True))


def _plain(layer, i):
    return DenseLayer(layer.weights[i], layer.bias[i, 0], layer.activation)


def plain_trunks(bank):
    """Each member's trunk as a plain network (views of the bank's stack)."""
    return [Network([_plain(layer, i) for layer in bank.trunk.layers]) for i in range(len(bank))]


def plain_heads(bank):
    """Each member's head as a plain layer (views of the bank's stack)."""
    return [_plain(bank.head, i) for i in range(len(bank))]


# ---------------------------------------------------------------------------
# the bank

def test_bank_needs_an_extractor_and_one_head_per_extractor():
    bank = train_episodes(toy_data(), (8,), CFG, [1, 2])
    with pytest.raises(ParameterError, match="at least one member"):
        stack_nets([])
    three = train_episodes(toy_data(), (8,), CFG, [1, 2, 3])
    for head in (bank.member(0).head, three.head, plain_heads(bank)[0]):
        with pytest.raises(ShapeError, match="stack its members"):
            RepresentationBank(bank.trunk, head)
    with pytest.raises(ShapeError, match="stack its members"):
        RepresentationBank(plain_trunks(bank)[0])


def test_bank_dims_follow_its_extractors():
    data = toy_data()
    bank = RepresentationBank(stack_nets(init_trunk([data.d, 5, 3], seed=s) for s in (1, 2)))
    assert (len(bank), bank.trunk.n_out, bank.total_dim) == (2, 3, 6)
    member = bank.member(1)
    assert (len(member), member.trunk.n_out, member.total_dim) == (1, 3, 3)
    joint, head = joint_train(data, (7,), 3, CFG)
    assert (len(joint), joint.trunk.n_out, joint.total_dim, head.n_in) == (3, 7, 21, 21)
    ft_bank, head = two_stage_finetune(bank, data, CFG, stage2_epochs=0)
    assert (len(ft_bank), ft_bank.trunk.n_out, ft_bank.total_dim, head.n_in) == (2, 3, 6, 6)
    # a bank of an 8-wide and a 5-then-3-wide trunk holds two architectures
    with pytest.raises(ShapeError):
        stack_nets([init_trunk([data.d, 8], seed=1), init_trunk([data.d, 5, 3], seed=2)])


@pytest.mark.parametrize("sizes,activation", [
    pytest.param((8, 6), "relu", id="width"),
    pytest.param((8, 5, 5), "relu", id="depth"),
    pytest.param((8, 5), "linear", id="activation"),
])
def test_a_bank_of_two_architectures_is_refused(sizes, activation):
    d = toy_data().d
    trunk = init_trunk([d, 8, 5], seed=1)
    other = init_trunk([d, *sizes], seed=2)
    last = other.layers[-1]  # init_trunk makes relu layers only
    other.layers[-1] = DenseLayer(last.weights, last.bias, activation)
    for extractors in ([trunk, other], [trunk, trunk.clone(), other]):
        with pytest.raises(ShapeError, match=f"member {len(extractors) - 1} differs"):
            stack_nets(extractors)
    # heads of two shapes over one trunk architecture are refused too
    rng = SplitMix64(3)
    with pytest.raises(ShapeError, match="member 1 differs"):
        stack_nets([Network([*trunk.layers, glorot_layer(3, 5, rng)]),
                    Network([*trunk.layers, glorot_layer(4, 5, rng)])])


# ---------------------------------------------------------------------------
# episode banks

def test_single_seed_bank_matches_single_train():
    data = toy_data()
    bank = train_episodes(data, (8,), CFG, [77])
    net = init_network([data.d, 8, data.n_classes], seed=77)
    trained, _ = train(net, data.X, data.y, CFG.with_seed(77))
    assert trunks_equal(bank.trunk, Network(trained.layers[:-1]))
    assert np.array_equal(bank.head.weights[0], trained.layers[-1].weights)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_episode_names_its_seed():
    cfg = TrainConfig(lr=1e6, epochs=20, batch_size=16, momentum=0.9)
    with pytest.raises(EpisodeError, match="seed 11 diverged") as info:
        train_episodes(toy_data(), (4,), cfg, [11, 12])
    assert info.value.seed == 11
    assert info.value.epoch is not None


def _alone(net, data, cfg):
    """The TrainingError of ``net`` trained by itself, or None if it trains."""
    try:
        train(net, data.X, data.y, cfg)
    except TrainingError as exc:
        return exc
    return None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_bank_names_the_episode_a_loop_would():
    # the episodes train as one stack, which meets seed 15's divergence
    # first; one at a time, seed 11 is the first to diverge
    data = toy_data()
    cfg = TrainConfig(lr=1e4, epochs=20, batch_size=16, momentum=0.9)
    alone = {s: _alone(init_network([data.d, 4, data.n_classes], seed=s), data, cfg.with_seed(s))
             for s in (13, 11, 15)}
    assert alone[13] is None and alone[15].epoch < alone[11].epoch
    with pytest.raises(EpisodeError) as info:
        train_episodes(data, (4,), cfg, [13, 11, 15])
    assert (info.value.seed, info.value.epoch) == (11, alone[11].epoch)
    assert str(info.value) == f"episode with seed 11 diverged: {alone[11]}"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_two_stage_finetune_names_the_leg_a_loop_would():
    # alone, leg 1 diverges an epoch before leg 0, and leg 3 trains
    data = toy_data()
    bank = train_episodes(data, (4,), CFG, [11, 12, 13, 14])
    cfg = TrainConfig(lr=3e4, epochs=20, batch_size=16, momentum=0.9, seed=1)
    alone = []
    for i, trunk in enumerate(plain_trunks(bank)):
        head = glorot_layer(data.n_classes, 4, SplitMix64(derive_seed(1, i)))
        alone.append(_alone(Network([*trunk.clone().layers, head]), data,
                            cfg.with_seed(derive_seed(1, i))))
    assert alone[1].epoch < alone[0].epoch and alone[3] is None
    with pytest.raises(EpisodeError) as info:
        two_stage_finetune(bank, data, cfg)
    assert (info.value.seed, info.value.epoch) == (derive_seed(1, 0), alone[0].epoch)
    assert str(info.value) == f"stage-1 fine-tune of leg 0 diverged: {alone[0]}"


DIVERGE = TrainConfig(lr=1e6, epochs=20, batch_size=16, momentum=0.9, seed=21)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_distillation_names_its_seed():
    data = toy_data()
    bank = train_episodes(data, (8,), CFG, [11, 12])
    with pytest.raises(EpisodeError, match="seed 21 diverged") as info:
        distill(bank, DistillSpec(student_arch=(8,)), data, DIVERGE)
    assert str(info.value) == f"distillation with seed 21 diverged: {info.value.__cause__}"
    assert info.value.seed == 21
    assert info.value.epoch is not None
    # the teacher heads train as one stack: the message names the teacher
    assert re.search(r"parameter 0, member [01]$", str(info.value))


def test_zero_norm_student_row_in_cosine_distillation_names_its_seed():
    # a (6,)-wide student from seed 21 maps a row of the first batch to zero
    data = toy_data()
    cfg = TrainConfig(lr=0.05, epochs=5, batch_size=32, momentum=0.9)
    bank = train_episodes(data, (6,), cfg, [13])
    with pytest.raises(EpisodeError, match="seed 21 diverged") as info:
        distill(bank, DistillSpec(mode="cosine", student_arch=(6,)), data, cfg.with_seed(21))
    assert (info.value.seed, info.value.epoch) == (21, 0)
    assert str(info.value).endswith("cosine distillation saw a zero-norm feature row")
    assert str(info.value) == f"distillation with seed 21 diverged: {info.value.__cause__}"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_joint_training_names_its_seed():
    with pytest.raises(EpisodeError, match="seed 21 diverged") as info:
        joint_train(toy_data(), (8,), 2, DIVERGE)
    assert str(info.value) == f"joint training with seed 21 diverged: {info.value.__cause__}"
    assert info.value.seed == 21
    assert info.value.epoch is not None
    # the legs train as one stack: the message names the leg
    assert re.search(r"parameter \d+, member [01]$", str(info.value))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_naive_finetune_names_its_seed():
    data = toy_data()
    bank = train_episodes(data, (8,), CFG, [5, 6])
    with pytest.raises(EpisodeError, match="seed 21 diverged") as info:
        naive_finetune(bank, data, DIVERGE)
    assert str(info.value) == f"naive fine-tune with seed 21 diverged: {info.value.__cause__}"
    assert info.value.seed == 21
    assert info.value.epoch is not None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_snapshot_episode_names_its_seed():
    with pytest.raises(EpisodeError) as info:
        snapshot_episode(toy_data(), (8,), DIVERGE, [5, 10])
    assert str(info.value) == f"snapshot episode diverged: {info.value.__cause__}"
    assert (info.value.seed, info.value.epoch) == (21, info.value.__cause__.epoch)
    assert info.value.epoch is not None


def test_duplicate_seeds_give_identical_extractors():
    data = toy_data()
    bank = train_episodes(data, (8,), CFG, [5, 5])
    assert trunks_equal(bank.member(0).trunk, bank.member(1).trunk)


def test_different_seeds_give_different_extractors():
    data = toy_data()
    bank = train_episodes(data, (8,), CFG, [5, 6])
    assert not trunks_equal(bank.member(0).trunk, bank.member(1).trunk)
    assert (len(bank), bank.trunk.n_out) == (2, 8)


def test_bank_members_are_value_isolated():
    data = toy_data()
    bank = train_episodes(data, (8,), CFG, [5, 6])
    single = bank.member(0)
    single.trunk.layers[0].weights[:] = 0.0
    assert not np.allclose(bank.trunk.layers[0].weights[0], 0.0)


# ---------------------------------------------------------------------------
# snapshots

def test_snapshot_at_final_epoch_equals_full_run():
    data = toy_data()
    cfg = CFG.with_seed(31)
    bank = snapshot_episode(data, (8,), cfg, [cfg.epochs])
    net = init_network([data.d, 8, data.n_classes], seed=cfg.seed)
    trained, _ = train(net, data.X, data.y, cfg)
    assert trunks_equal(bank.trunk, Network(trained.layers[:-1]))


@pytest.mark.parametrize("schedule,equal", [(Schedule(), True),
                                             (Schedule("step", 0.5, 3), True),
                                             (Schedule("cosine"), False)],
                         ids=["constant", "step", "cosine"])
def test_snapshot_prefix_property(schedule, equal):
    # a snapshot at epoch 4 equals the final model of a 4-epoch run when the
    # schedule's rate does not depend on the run length; cosine's does
    data = toy_data()
    cfg = replace(CFG, schedule=schedule, seed=8)
    bank = snapshot_episode(data, (8,), cfg, [4, 8, 12])
    short, _ = train(init_network([data.d, 8, data.n_classes], seed=8),
                     data.X, data.y, replace(cfg, epochs=4))
    assert trunks_equal(bank.member(0).trunk, Network(short.layers[:-1])) == equal


def test_snapshot_reruns_reproduce_bytes():
    data = toy_data()
    a = snapshot_episode(data, (8,), CFG.with_seed(3), [3, 6])
    b = snapshot_episode(data, (8,), CFG.with_seed(3), [3, 6])
    assert trunks_equal(a.trunk, b.trunk)


def test_snapshot_epoch_validation():
    data = toy_data()
    with pytest.raises(ParameterError):
        snapshot_episode(data, (8,), CFG, [6, 3])
    with pytest.raises(ParameterError):
        snapshot_episode(data, (8,), CFG, [0, 3])
    with pytest.raises(ParameterError):
        snapshot_episode(data, (8,), CFG, [CFG.epochs + 1])


# ---------------------------------------------------------------------------
# concatenation

def test_cat_features_single_member():
    data = toy_data()
    bank = train_episodes(data, (8,), CFG, [1])
    feats = cat_features(bank, data.X)
    assert np.array_equal(feats, extract_features(plain_trunks(bank)[0], data.X))


def test_cat_features_block_layout():
    data = toy_data()
    bank = train_episodes(data, (8,), CFG, [1, 2])
    feats = cat_features(bank, data.X)
    assert feats.shape[1] == 16
    first, second = plain_trunks(bank)
    assert np.array_equal(feats[:, :8], extract_features(first, data.X))
    assert np.array_equal(feats[:, 8:], extract_features(second, data.X))


@pytest.mark.parametrize("hidden", [(16,), (16, 8)], ids=str)
@pytest.mark.parametrize("seeds", [[3], [3, 4, 5, 6, 7]], ids=["1-member", "5-member"])
@pytest.mark.parametrize("rows", [1, 15, 25, 600, 900, 1500])
def test_stacked_reads_equal_the_per_member_reads_bitwise(rows, seeds, hidden):
    # the row counts the pipelines feed: a few-shot query, support and
    # episode block, and the transfer probe and test sets
    bank = train_episodes(toy_data(), hidden, CFG, seeds)
    data = toy_data(n=rows, seed=9)
    feats = [extract_features(trunk, data.X) for trunk in plain_trunks(bank)]
    assert cat_features(bank, data.X).tobytes() == np.hstack(feats).tobytes()
    logits = leg_logits(bank, data.X)
    for f, head, got in zip(feats, plain_heads(bank), logits, strict=True):
        assert got.tobytes() == (f @ head.weights.T + head.bias).tobytes()
    # a probe is cached under the sha256 of the features it was fitted on
    cache = ProbeCache(ProbeConfig(l2=1e-3, max_iters=1))
    leg_probe_gap(bank, data, cache)
    assert set(cache.probes) == {cache.key(f, data.y, data.n_classes) for f in feats}


def test_duplicate_extractor_adds_no_information():
    data = toy_data()
    bank2 = train_episodes(data, (8,), CFG, [1, 1])
    single = bank2.member(0)
    cfg = ProbeConfig(l2=0.0, max_iters=4000, grad_tol=1e-9)
    c1 = optimal_cost(cat_features(single, data.X), data.y, cfg)
    c2 = optimal_cost(cat_features(bank2, data.X), data.y, cfg)
    assert abs(c1 - c2) <= 1e-3


def test_probe_cost_monotone_under_concatenation():
    data = toy_data()
    bank3 = train_episodes(data, (8,), CFG, [1, 2, 3])
    cfg = ProbeConfig(l2=1e-3, max_iters=3000, grad_tol=1e-8)
    prev = None
    for n in (1, 2, 3):
        sub = RepresentationBank(stack_nets(plain_trunks(bank3)[:n]))
        cost = optimal_cost(cat_features(sub, data.X), data.y, cfg)
        if prev is not None:
            assert cost <= prev + 1e-3
        prev = cost


# ---------------------------------------------------------------------------
# subset ensembles

def test_subset_ensemble_single_equals_probe_softmax():
    from richlab.core_nn import tempered_log_probs

    data = toy_data()
    bank = train_episodes(data, (8,), CFG, [1])
    probe = fit_probe(cat_features(bank, data.X), data.y, PROBE,
                      n_classes=data.n_classes)
    out = subset_ensemble_predict(bank, [probe], data.X)
    want = tempered_log_probs(probe.logits(cat_features(bank, data.X)), 1.0)[1]
    assert np.array_equal(out, want)


def test_subset_ensemble_identical_members():
    data = toy_data()
    bank = train_episodes(data, (8,), CFG, [4, 4])
    probe = fit_probe(extract_features(plain_trunks(bank)[0], data.X), data.y, PROBE,
                      n_classes=data.n_classes)
    out = subset_ensemble_predict(bank, [probe, probe], data.X)
    single = subset_ensemble_predict(bank.member(0), [probe], data.X)
    assert np.allclose(out, single)


def test_subset_ensemble_hand_arithmetic():
    # probes emitting logits (ln2, 0) and (0, ln2) average to (0.5, 0.5)
    from richlab.probing import ProbeResult

    data = toy_data(n=4)
    bank = train_episodes(data, (8,), CFG, [1, 2])
    p1 = ProbeResult(np.zeros((2, 8)), np.array([np.log(2.0), 0.0]), 0.0, 1.0, True)
    p2 = ProbeResult(np.zeros((2, 8)), np.array([0.0, np.log(2.0)]), 0.0, 1.0, True)
    out = subset_ensemble_predict(bank, [p1, p2], data.X)
    assert np.allclose(out, 0.5)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_subset_ensemble_count_mismatch():
    data = toy_data()
    bank = train_episodes(data, (8,), CFG, [1, 2])
    probe = fit_probe(cat_features(bank.member(0), data.X), data.y, PROBE)
    with pytest.raises(ParameterError):
        subset_ensemble_predict(bank, [probe], data.X)


# ---------------------------------------------------------------------------
# distillation

def test_ce_kl_alpha_one_matches_kl_trajectory():
    data = toy_data()
    bank = train_episodes(data, (8,), CFG, [9, 10])
    cfg = TrainConfig(lr=0.05, epochs=6, batch_size=16, momentum=0.9, seed=5)
    a = distill(bank, DistillSpec(mode="kl", tau=4.0, student_arch=(8,)), data, cfg)
    b = distill(bank, DistillSpec(mode="ce_kl", tau=4.0, alpha=1.0, student_arch=(8,)),
                data, cfg)
    assert trunks_equal(a, b)


def test_cosine_distillation_runs_and_aligns():
    data = toy_data()
    bank = train_episodes(data, (8,), CFG, [9])
    spec = DistillSpec(mode="cosine", student_arch=(8,))
    cfg = TrainConfig(lr=0.05, epochs=30, batch_size=16, momentum=0.9, seed=5)
    student = distill(bank, spec, data, cfg)
    assert student.layers[-1].n_out == 8


def test_distill_requires_teacher_heads_for_kl():
    data = toy_data()
    bank = train_episodes(data, (8,), CFG, [9])
    headless = RepresentationBank(bank.trunk)
    with pytest.raises(ParameterError):
        distill(headless, DistillSpec(mode="kl", student_arch=(8,)), data,
                TrainConfig(lr=0.05, epochs=1, batch_size=16))


# ---------------------------------------------------------------------------
# naive fine-tuning and the joint baseline

def test_naive_finetune_zero_epochs_keeps_trunks():
    data = toy_data()
    bank = train_episodes(data, (8,), CFG, [1, 2])
    cfg = TrainConfig(lr=0.05, epochs=0, batch_size=16, seed=3)
    ft_bank, head = naive_finetune(bank, data, cfg)
    assert ft_bank.head is None and head.n_in == bank.total_dim
    assert trunks_equal(ft_bank.trunk, bank.trunk)
    assert np.array_equal(cat_features(ft_bank, data.X), cat_features(bank, data.X))


def test_naive_finetune_trains_all_parts():
    data = toy_data()
    bank = train_episodes(data, (8,), CFG, [1, 2])
    cfg = TrainConfig(lr=0.05, epochs=8, batch_size=16, momentum=0.9, seed=3)
    ft_bank, head = naive_finetune(bank, data, cfg)
    assert not trunks_equal(ft_bank.member(0).trunk, bank.member(0).trunk)
    assert bank_head_accuracy(ft_bank, head, data.X, data.y) > 0.5


def test_joint_train_builds_bank_without_heads():
    data = toy_data()
    bank, head = joint_train(data, (8,), 2, TrainConfig(lr=0.05, epochs=8, batch_size=16,
                                                        momentum=0.9, seed=4))
    assert bank.head is None
    assert bank.total_dim == 16 and head.n_in == 16


# ---------------------------------------------------------------------------
# two-stage fine-tuning

def test_two_stage_zero_stage2_equals_mean_of_leg_logits():
    data = toy_data()
    bank = train_episodes(data, (8,), CFG, [1, 2, 3])
    ft_cfg = TrainConfig(lr=0.05, epochs=5, batch_size=16, momentum=0.9, seed=6)
    ft_bank, head = two_stage_finetune(bank, data, ft_cfg, stage2_epochs=0)
    got = bank_head_logits(ft_bank, head, data.X)
    want = sum(leg_logits(ft_bank, data.X)) / 3
    assert np.max(np.abs(got - want)) <= 1e-12


def test_two_stage_single_leg_equals_plain_finetune():
    data = toy_data()
    bank = train_episodes(data, (8,), CFG, [1])
    ft_cfg = TrainConfig(lr=0.05, epochs=5, batch_size=16, momentum=0.9, seed=6)
    ft_bank, head = two_stage_finetune(bank, data, ft_cfg, stage2_epochs=0)
    got = bank_head_logits(ft_bank, head, data.X)
    want = leg_logits(ft_bank, data.X)[0]
    assert np.allclose(got, want, atol=1e-12)


def test_concat_head_init_shapes():
    combined = concat_head_init([np.ones((3, 4)), 2 * np.ones((3, 5))],
                                [np.ones(3), np.zeros(3)])
    assert combined.weights.shape == (3, 9)
    assert np.allclose(combined.bias, 0.5)


def test_two_stage_accuracy_reasonable():
    data = toy_data(n=200)
    bank = train_episodes(data, (8,), CFG, [1, 2])
    ft_cfg = TrainConfig(lr=0.05, epochs=10, batch_size=16, momentum=0.9, seed=6)
    ft_bank, head = two_stage_finetune(bank, data, ft_cfg)
    assert bank_head_accuracy(ft_bank, head, data.X, data.y) > 0.7


# ---------------------------------------------------------------------------
# leg disparity

def test_leg_gap_zero_for_identical_legs():
    data = toy_data()
    bank = train_episodes(data, (8,), CFG, [5, 5])
    accs, gap = leg_probe_gap(bank, data, ProbeCache(PROBE))
    assert gap == 0.0
    assert accs[0] == accs[1]


def test_cache_fit_of_leg_features_equals_one_fit_per_extractor():
    # four legs fitted as one stack, results back in bank order
    from test_probing import assert_same_probe

    data = toy_data(n=300)
    bank = train_episodes(data, (8,), CFG, [5, 6, 7, 8])
    probes = ProbeCache(PROBE).fit(extract_features(bank.trunk, data.X), data.y,
                                   data.n_classes)
    assert len(probes) == 4
    for trunk, probe in zip(plain_trunks(bank), probes, strict=True):
        alone = fit_probe(extract_features(trunk, data.X), data.y, PROBE,
                          n_classes=data.n_classes)
        assert_same_probe(probe, alone)
    accs, gap = leg_probe_gap(bank, data, ProbeCache(PROBE))
    assert accs == [p.train_accuracy for p in probes]
    assert gap == max(accs) - min(accs)


def test_leg_gap_orders_accs_by_bank_order():
    data = toy_data()
    bank = train_episodes(data, (8,), CFG, [5, 6])
    accs, gap = leg_probe_gap(bank, data, ProbeCache(PROBE))
    assert len(accs) == 2
    assert gap == pytest.approx(max(accs) - min(accs))
