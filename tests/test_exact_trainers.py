"""Every trainer gives the same bits as its own hand-written loop.

All trainers run through one mini-batch loop, ``core_nn.sgd_fit``, and
one update, ``core_nn.sgd_step``; the episodes of a bank, distillation's
teacher heads and joint training's legs train as stacks of equal-shaped
members.  Frozen, self-contained copies of the separate loops they
replaced live here: their own momentum update, learning-rate schedule,
forward and backward pass, and Fisher-Yates order, one member at a time.
The tests compare trained parameters by bytes with momentum, weight
decay, a step schedule and a partial last batch switched on.
"""
from dataclasses import replace

import numpy as np
import pytest

from richlab.core_nn import Network, Schedule, TrainConfig, init_network, train
from richlab.core_nn.layers import (
    CosineHead,
    cosine_head_backward,
    cosine_head_forward,
    glorot_layer,
)
from richlab.core_nn.losses import (
    cosine_distill_loss,
    cross_entropy_loss,
    distill_to_log_probs,
    tempered_log_probs,
)
from richlab.experiments import fit_cosine_classifier
from richlab.richrep import (
    DistillSpec,
    concat_head_init,
    distill,
    init_trunk,
    joint_train,
    naive_finetune,
    snapshot_episode,
    train_episodes,
    two_stage_finetune,
)
from richlab.rng import SplitMix64, derive_seed
from test_exact_step import reference_backward, reference_forward
from test_richrep import plain_heads, plain_trunks, toy_data

# toy_data has 120 rows; in batches of 32 the last batch of every epoch has 24
CFG = TrainConfig(lr=0.05, epochs=5, batch_size=32, momentum=0.9, weight_decay=1e-3,
                  schedule=Schedule("step", 0.5, 2), seed=3)


# ---------------------------------------------------------------------------
# the separate loops, frozen

def ref_lr(cfg, epoch):
    sched = cfg.schedule
    if sched.kind == "constant":
        return cfg.lr
    if sched.kind == "step":
        return cfg.lr * sched.factor ** (epoch // sched.every)
    return cfg.lr * 0.5 * (1.0 + np.cos(np.pi * epoch / cfg.epochs))


def ref_update(w, g, v, lr, momentum, wd):
    v *= momentum
    v += g + wd * w if wd else g
    w -= lr * v


def ref_update_layer(layer, dW, db, vel, lr, cfg):
    ref_update(layer.weights, dW, vel[0], lr, cfg.momentum, cfg.weight_decay)
    ref_update(layer.bias, db, vel[1], lr, cfg.momentum, 0.0)


def zero_vel(layers):
    return [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in layers]


def batches(cfg, n):
    """Per epoch: the learning rate and the row batches of the epoch."""
    rng = SplitMix64(cfg.seed + 1)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        yield epoch, ref_lr(cfg, epoch), [order[s:s + cfg.batch_size]
                                          for s in range(0, n, cfg.batch_size)]


def ref_train(net, X, y, cfg, on_epoch_end=None):
    net = net.clone()
    vel = zero_vel(net.layers)
    for epoch, lr, idxs in batches(cfg, len(X)):
        for idx in idxs:
            acts, pres = reference_forward(net.layers, X[idx])
            _, d = cross_entropy_loss(acts[-1], y[idx])
            grads, _ = reference_backward(net.layers, acts, pres, d)
            for layer, (dW, db), v in zip(net.layers, grads, vel):
                ref_update_layer(layer, dW, db, v, lr, cfg)
        if on_epoch_end is not None:
            on_epoch_end(epoch, net)
    return net


def ref_distill(bank, spec, data, cfg):
    X, y = data.X, data.y
    feats = [reference_forward(t.layers, X)[0][-1] for t in plain_trunks(bank)]
    if spec.mode == "cosine":
        targets = feats
    else:
        targets = [tempered_log_probs(f @ h.weights.T + h.bias, spec.tau)
                   for f, h in zip(feats, plain_heads(bank))]
    alpha = spec.alpha if spec.mode == "ce_kl" else 1.0
    trunk = init_trunk([data.d, *spec.student_arch], SplitMix64(cfg.seed))
    rng = SplitMix64(cfg.seed)
    heads = [glorot_layer(f.shape[1] if spec.mode == "cosine" else data.n_classes,
                          spec.student_arch[-1], rng) for f in feats]
    t_vel, h_vel = zero_vel(trunk.layers), zero_vel(heads)
    for _, lr, idxs in batches(cfg, data.n):
        for idx in idxs:
            acts, pres = reference_forward(trunk.layers, X[idx])
            feat = acts[-1]
            d_feat = np.zeros_like(feat)
            head_grads = []
            for head, tgt in zip(heads, targets):
                out = feat @ head.weights.T + head.bias
                if spec.mode == "cosine":
                    _, d_out = cosine_distill_loss(tgt[idx], out)
                else:
                    _, d_out = distill_to_log_probs(tgt[0][idx], tgt[1][idx], out,
                                                    spec.tau, y[idx], alpha)
                head_grads.append((d_out.T @ feat, d_out.sum(axis=0)))
                d_feat += d_out @ head.weights
            grads, _ = reference_backward(trunk.layers, acts, pres, d_feat)
            for layer, (dW, db), v in zip(trunk.layers, grads, t_vel):
                ref_update_layer(layer, dW, db, v, lr, cfg)
            for head, (dW, db), v in zip(heads, head_grads, h_vel):
                ref_update_layer(head, dW, db, v, lr, cfg)
    return trunk


def ref_multileg(legs, head, X, y, cfg):
    """Joint SGD over legs and one head; the head moves first."""
    leg_vel = [zero_vel(leg.layers) for leg in legs]
    head_vel = zero_vel([head])[0]
    offsets = np.cumsum([0, *(leg.layers[-1].n_out for leg in legs)])
    for _, lr, idxs in batches(cfg, len(X)):
        for idx in idxs:
            caches = [reference_forward(leg.layers, X[idx]) for leg in legs]
            feat = np.hstack([acts[-1] for acts, _ in caches])
            _, d_logits = cross_entropy_loss(feat @ head.weights.T + head.bias, y[idx])
            d_feat = d_logits @ head.weights
            ref_update_layer(head, d_logits.T @ feat, d_logits.sum(axis=0), head_vel, lr, cfg)
            for leg, (acts, pres), vel, a, b in zip(legs, caches, leg_vel,
                                                    offsets[:-1], offsets[1:]):
                grads, _ = reference_backward(leg.layers, acts, pres, d_feat[:, a:b])
                for layer, (dW, db), v in zip(leg.layers, grads, vel):
                    ref_update_layer(layer, dW, db, v, lr, cfg)
    return legs, head


def ref_cosine_classifier(feats, y, n_classes, seed, lr, epochs, momentum, batch_size):
    head = CosineHead(glorot_layer(n_classes, feats.shape[1], SplitMix64(seed)).weights,
                      np.ones(n_classes))
    vU, vg = np.zeros_like(head.directions), np.zeros_like(head.gains)
    shuffle = SplitMix64(seed + 1)
    for _ in range(epochs):
        order = shuffle.permutation(len(feats))
        for start in range(0, len(feats), batch_size):
            idx = order[start:start + batch_size]
            _, d_logits = cross_entropy_loss(cosine_head_forward(feats[idx], head), y[idx])
            dU, dg = cosine_head_backward(feats[idx], head, d_logits)
            ref_update(head.directions, dU, vU, lr, momentum, 0.0)
            ref_update(head.gains, dg, vg, lr, momentum, 0.0)
    return head


def assert_same_layers(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.weights.tobytes() == b.weights.tobytes()
        assert a.bias.tobytes() == b.bias.tobytes()


# ---------------------------------------------------------------------------
# byte comparisons

def test_train_matches_reference_bitwise():
    data = toy_data()
    net = init_network([data.d, 8, 5, data.n_classes], seed=4)
    trained, history = train(net, data.X, data.y, CFG)
    assert len(history) == CFG.epochs
    assert_same_layers(trained.layers, ref_train(net, data.X, data.y, CFG).layers)


def ref_episodes(data, hidden, cfg, seeds):
    """The per-episode loop: one initialization and one training run per seed."""
    sizes = [data.d, *hidden, data.n_classes]
    return [ref_train(init_network(sizes, seed=s), data.X, data.y, cfg.with_seed(s))
            for s in seeds]


@pytest.mark.parametrize("hidden", [(1,), (2,), (4,), (8,), (16,), (8, 1), (8, 6), (32, 16)],
                         ids=str)
def test_train_episodes_matches_reference_bitwise(hidden):
    data = toy_data()
    seed_sets = [[5], [5, 5], [1, 2, 3], [derive_seed(7, i) for i in range(6)]]
    for batch_size in (32, 16, 7):  # last batches of 24, 8 and 1 rows
        for schedule in (Schedule("step", 0.5, 2), Schedule("cosine")):
            cfg = replace(CFG, batch_size=batch_size, schedule=schedule)
            for seeds in seed_sets:
                bank = train_episodes(data, hidden, cfg, seeds)
                for trunk, head, want in zip(plain_trunks(bank), plain_heads(bank),
                                             ref_episodes(data, hidden, cfg, seeds), strict=True):
                    assert_same_layers([*trunk.layers, head], want.layers)


@pytest.mark.parametrize("mode,teachers", [
    pytest.param("kl", "two", id="kl"),
    pytest.param("ce_kl", "two", id="ce_kl"),
    pytest.param("cosine", "two", id="cosine"),
    pytest.param("kl", "one", id="kl-one-teacher"),
    pytest.param("cosine", "one", id="cosine-one-teacher"),
])
def test_distill_matches_reference_bitwise(mode, teachers):
    data = toy_data()
    bank = train_episodes(data, (8,), CFG, [11, 12] if teachers == "two" else [11])
    spec = DistillSpec(mode=mode, tau=4.0, alpha=0.7, student_arch=(7, 5))
    student = distill(bank, spec, data, CFG)
    assert_same_layers(student.layers, ref_distill(bank, spec, data, CFG).layers)


def test_joint_train_matches_reference_bitwise():
    data = toy_data()
    for n_legs in (3, 1):
        bank, got_head = joint_train(data, (8, 4), n_legs, CFG)
        rng = SplitMix64(CFG.seed)
        legs = [Network([glorot_layer(8, data.d, rng, "relu"), glorot_layer(4, 8, rng, "relu")])
                for _ in range(n_legs)]
        head = glorot_layer(data.n_classes, 4 * n_legs, rng)
        legs, head = ref_multileg(legs, head, data.X, data.y, CFG)
        for got, want in zip(plain_trunks(bank), legs, strict=True):
            assert_same_layers(got.layers, want.layers)
        assert_same_layers([got_head], [head])


def test_naive_finetune_matches_reference_bitwise():
    data = toy_data()
    for bank in (train_episodes(data, (8,), CFG, [5, 6]), train_episodes(data, (8,), CFG, [5])):
        ft_bank, got_head = naive_finetune(bank, data, CFG)
        head = glorot_layer(data.n_classes, bank.total_dim, SplitMix64(CFG.seed))
        legs, head = ref_multileg([t.clone() for t in plain_trunks(bank)], head,
                                  data.X, data.y, CFG)
        for got, want in zip(plain_trunks(ft_bank), legs, strict=True):
            assert_same_layers(got.layers, want.layers)
        assert_same_layers([got_head], [head])


def test_two_stage_finetune_matches_reference_bitwise():
    data = toy_data()
    for bank in (train_episodes(data, (8,), CFG, [5, 6]), train_episodes(data, (8,), CFG, [5])):
        ft_bank, final = two_stage_finetune(bank, data, CFG, stage2_epochs=3, stage2_lr=0.01)
        want_trunks, want_heads = [], []
        for i, trunk in enumerate(plain_trunks(bank)):
            leg_seed = derive_seed(CFG.seed, i)
            head = glorot_layer(data.n_classes, bank.trunk.n_out, SplitMix64(leg_seed))
            net = ref_train(Network([*trunk.clone().layers, head]), data.X, data.y,
                            CFG.with_seed(leg_seed))
            want_trunks.append(net.layers[:-1])
            want_heads.append(net.layers[-1])
        for got, want in zip(plain_trunks(ft_bank), want_trunks, strict=True):
            assert_same_layers(got.layers, want)
        assert_same_layers(plain_heads(ft_bank), want_heads)
        feats = np.hstack([reference_forward(layers, data.X)[0][-1] for layers in want_trunks])
        stage2 = TrainConfig(lr=0.01, epochs=3, batch_size=CFG.batch_size,
                             momentum=CFG.momentum, seed=derive_seed(CFG.seed, len(bank) + 1))
        init = concat_head_init([h.weights for h in want_heads], [h.bias for h in want_heads])
        want_final = ref_train(Network([init]), feats, data.y, stage2)
        assert_same_layers([final], want_final.layers)


def test_snapshot_episode_matches_reference_bitwise():
    data = toy_data()
    snaps = [1, 3, 5]
    bank = snapshot_episode(data, (8,), CFG, snaps)
    captured = {}

    def grab(epoch, net):
        if epoch + 1 in snaps:
            captured[epoch + 1] = net.clone()

    ref_train(init_network([data.d, 8, data.n_classes], seed=CFG.seed), data.X, data.y,
              CFG, on_epoch_end=grab)
    for j, e in enumerate(snaps):
        assert_same_layers([*plain_trunks(bank)[j].layers, plain_heads(bank)[j]],
                           captured[e].layers)


def test_fit_cosine_classifier_matches_reference_bitwise():
    rng = SplitMix64(9)
    feats = rng.normal(22 * 6).reshape(22, 6)  # batches of 4: the last has 2 rows
    y = rng.integers(5, 22)
    head = fit_cosine_classifier(feats, y, 5, seed=17, lr=0.1, epochs=7, momentum=0.9,
                                 batch_size=4)
    want = ref_cosine_classifier(feats, y, 5, 17, 0.1, 7, 0.9, 4)
    assert head.directions.tobytes() == want.directions.tobytes()
    assert head.gains.tobytes() == want.gains.tobytes()
