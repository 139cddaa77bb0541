"""Rich-representation constructions.

A representation here is a :class:`RepresentationBank`: one network
whose layers stack one or more head-less trunks of one architecture
along a leading member axis, so that their features concatenate, with
the stacked classifiers the members ended with when they have their own.
Every trainer returns the stack it trained as the bank, and every
consumer reads all members in one stacked forward.  The constructions below
build banks from independent training episodes, from snapshots of a
single high-step-size episode, or from joint training of several legs
under one head, and combine them by concatenation, ensembling,
distillation into a single student, or fine-tuning.  Joint training,
naive fine-tuning and two-stage fine-tuning each return a bank and the
one classifier over its concatenated features.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_nn.layers import (
    DenseLayer,
    Network,
    extract_features,
    glorot_layer,
    init_network,
    layer_params,
    stack_backward,
    stack_forward,
    stack_layers,
)
from .core_nn.losses import (
    cosine_distill_loss,
    cross_entropy_loss,
    distill_to_log_probs,
    tempered_log_probs,
)
from .core_nn.optim import TrainConfig, sgd_fit
from .core_nn.train import accuracy, train
from .errors import ParameterError, ShapeError, check_bounds, check_items, named
# fit_probe is imported, not called: perfbench/tests checks that its tracer wraps it
from .probing import ProbeCache, ProbeResult, fit_probe
from .rng import SplitMix64, derive_seed
from .tasks import Dataset


@dataclass
class RepresentationBank:
    """T trunks of one architecture whose features concatenate into one representation.

    ``trunk`` is one network whose layers carry a leading member axis of
    length T, as :func:`stack_nets` builds them.  ``head`` stacks the
    classifier each member ended with (the frozen teacher heads in
    distillation, and the two-stage fine-tuning classifier's init); trunks
    trained under a shared head, and a distilled student, have none.
    """

    trunk: Network
    head: DenseLayer | None = None

    def __post_init__(self):
        layers = [*self.trunk.layers, *([] if self.head is None else [self.head])]
        if any(layer.weights.ndim != 3 or len(layer.weights) != len(self) for layer in layers):
            raise ShapeError("every layer of a bank must stack its members along a leading axis")
        if self.head is not None and self.head.n_in != self.trunk.n_out:
            raise ShapeError(f"head input {self.head.n_in} does not match trunk output "
                             f"{self.trunk.n_out}")

    def __len__(self) -> int:
        return len(self.trunk.layers[0].weights)

    @property
    def total_dim(self) -> int:
        return self.trunk.n_out * len(self)

    def member(self, i: int) -> "RepresentationBank":
        """Single-member bank holding a value-isolated copy of member ``i``."""
        def take(layer):
            return DenseLayer(layer.weights[i:i + 1].copy(), layer.bias[i:i + 1].copy(),
                              layer.activation)
        return RepresentationBank(Network([*map(take, self.trunk.layers)]),
                                  None if self.head is None else take(self.head))


def stack_nets(nets) -> Network:
    """One network whose layers stack ``nets`` along a leading member axis.

    The nets must share one architecture: a net that differs from the
    first in depth, or in a layer's weight shape or activation, is refused.
    """
    nets = list(nets)
    if not nets:
        raise ParameterError("a bank needs at least one member")
    archs = [[(layer.weights.shape, layer.activation) for layer in net.layers] for net in nets]
    for i, arch in enumerate(archs):
        if arch != archs[0]:
            raise ShapeError(f"bank member {i} differs from member 0 in depth, or in a layer's "
                             f"shape or activation: {arch} against {archs[0]}")
    return Network([stack_layers(depth) for depth in zip(*(net.layers for net in nets))])


def _headed_bank(stack: Network) -> RepresentationBank:
    """The bank of a trained stack: its hidden layers, and its last layer as the heads."""
    if len(stack.layers) < 2:
        raise ParameterError("network needs a hidden layer to yield a trunk")
    return RepresentationBank(Network(stack.layers[:-1]), stack.layers[-1])


@dataclass(frozen=True)
class DistillSpec:
    """How to distill a bank into one student trunk.

    ``student_arch`` lists the trunk widths after the input (the last
    entry is the student representation width).  ``alpha`` is ignored in
    pure-KL mode; cosine mode matches raw teacher features (frozen
    teacher heads replaced by the identity).
    """

    mode: str = "kl"  # kl | ce_kl | cosine
    tau: float = 10.0
    alpha: float = 0.9
    student_arch: tuple[int, ...] = (16,)

    def __post_init__(self):
        if self.mode not in ("kl", "ce_kl", "cosine"):
            raise ParameterError(f"unknown distillation mode {self.mode!r}", "mode")
        check_bounds("tau", self.tau, gt=0)
        check_bounds("alpha", self.alpha, ge=0, le=1)
        check_items("student_arch", self.student_arch, ge=1, le=10**4)


def init_trunk(sizes, rng: SplitMix64) -> Network:
    """Head-less trunk drawn from ``rng``: every layer is relu."""
    sizes = list(sizes)
    if len(sizes) < 2:
        raise ParameterError("trunk sizes must list input and at least one width")
    return Network([glorot_layer(sizes[i + 1], sizes[i], rng, "relu")
                    for i in range(len(sizes) - 1)])


# ---------------------------------------------------------------------------
# bank builders

def train_episodes(data: Dataset, hidden, base_config: TrainConfig, seeds) -> RepresentationBank:
    """Independently train one episode per seed; everything else identical.

    The episodes train as one stack, each on its own seed's initialization
    and batch order, bit for bit as one at a time.  A divergence stops the
    stack, and its error names the member, episode ``i`` of ``seeds``.
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ParameterError("need at least one seed")
    sizes = [data.d, *hidden, data.n_classes]
    stack = stack_nets(init_network(sizes, seed=s) for s in seeds)
    with named("episode bank diverged: "):
        return _headed_bank(train(stack, data.X, data.y, base_config, seeds=seeds)[0])


def snapshot_episode(data: Dataset, hidden, config: TrainConfig,
                     snapshot_epochs) -> RepresentationBank:
    """Capture parameter snapshots of one training run at the listed epochs.

    ``snapshot_epochs`` counts completed epochs (ascending, each within
    ``config.epochs``).  When the schedule's rate does not depend on the
    run length (``constant``, ``step``), a snapshot at epoch ``E`` equals
    the final model of an ``E``-epoch run with the same seed; under
    ``cosine`` the shorter run decays faster, and the two differ.
    """
    snaps = [int(e) for e in snapshot_epochs]
    if not snaps:
        raise ParameterError("need at least one snapshot epoch")
    if any(b <= a for a, b in zip(snaps, snaps[1:])):
        raise ParameterError("snapshot epochs must be strictly ascending")
    if snaps[0] < 1 or snaps[-1] > config.epochs:
        raise ParameterError(
            f"snapshot epochs must lie in [1, {config.epochs}], got {snaps}"
        )
    sizes = [data.d, *hidden, data.n_classes]
    net = init_network(sizes, seed=config.seed)
    want = set(snaps)
    captured: dict[int, Network] = {}

    def grab(epoch: int, current: Network) -> None:
        done = epoch + 1
        if done in want:
            captured[done] = current.clone()

    with named("snapshot episode diverged: ", seed=config.seed):
        train(net, data.X, data.y, config, on_epoch_end=grab)
    return _headed_bank(stack_nets(captured[e] for e in snaps))


# ---------------------------------------------------------------------------
# concatenation and ensembling

def cat_features(bank: RepresentationBank, X) -> np.ndarray:
    """Column-concatenated features, one contiguous block per member."""
    return np.concatenate(extract_features(bank.trunk, X), axis=1)


def subset_ensemble_predict(bank: RepresentationBank, probes: list[ProbeResult],
                            X) -> np.ndarray:
    """Average of per-member probe softmax outputs (rows sum to 1)."""
    if len(probes) != len(bank):
        raise ParameterError(f"{len(bank)} members but {len(probes)} probes")
    out = None
    for feats, probe in zip(extract_features(bank.trunk, X), probes):
        p = tempered_log_probs(probe.logits(feats), 1.0)[1]
        out = p if out is None else out + p
    return out / len(probes)


# ---------------------------------------------------------------------------
# distillation

def distill(bank: RepresentationBank, spec: DistillSpec, data: Dataset,
            config: TrainConfig) -> Network:
    """Train one student trunk with one output head per frozen teacher.

    The per-teacher losses are summed; gradients flow through the shared
    trunk and the heads only.  Returns the trunk (heads discarded).  The
    trunk and the heads start from Glorot draws of the config seed.  The
    teachers' targets are their own-head logits for kl and ce_kl, and
    their features for cosine.
    """
    X, y = data.X, data.y
    target = extract_features(bank.trunk, X) if spec.mode == "cosine" else leg_logits(bank, X)
    trunk = init_trunk([data.d, *spec.student_arch], SplitMix64(config.seed))
    rng = SplitMix64(config.seed)
    head = stack_layers([glorot_layer(target.shape[-1], trunk.n_out, rng)
                         for _ in range(len(bank))])
    return _distill_train(trunk, head, target, spec, X, y, config)


def _distill_train(trunk, head, target, spec, X, y, config) -> Network:
    """SGD over the trunk and the stacked teacher heads.

    Per batch the stack makes one head product, one loss call and one
    head-gradient product.  The per-teacher losses and trunk-gradient
    terms are then added in teacher order, from zero, as a loop over the
    heads would add them.
    """
    tau = float(spec.tau)
    alpha = float(spec.alpha) if spec.mode == "ce_kl" else 1.0
    if spec.mode != "cosine":
        # the tempered teacher targets are fixed: one log_softmax for all
        target = tempered_log_probs(target, tau)

    def loss_and_grad(idx):
        yb = y[idx]
        acts = stack_forward(trunk.layers, X[idx])
        feat = acts[-1]
        out = feat @ head.weights.swapaxes(-1, -2)
        out += head.bias
        if spec.mode == "cosine":
            losses, d_out = cosine_distill_loss(target[:, idx], out)
        else:
            logp, p = target
            losses, d_out = distill_to_log_probs(logp[:, idx], p[:, idx], out, tau, yb, alpha)
        batch_loss, d_feat = 0.0, np.zeros_like(feat)
        for loss, d_teacher in zip(losses, d_out @ head.weights):
            batch_loss += loss
            d_feat += d_teacher
        head_grads = [d_out.swapaxes(-1, -2) @ feat, d_out.sum(axis=-2, keepdims=True)]
        return batch_loss, head_grads + stack_backward(trunk.layers, acts, d_feat)

    # the heads come first, so a divergence that reaches them names the teacher
    with named(f"distillation with seed {config.seed} diverged: ", seed=config.seed):
        sgd_fit(layer_params([head, *trunk.layers]), loss_and_grad, X.shape[0], config)
    return trunk


# ---------------------------------------------------------------------------
# legs under one head: naive fine-tuning of a concatenated trunk, and the
# joint-training baseline (n parallel legs under a single head, one seed)

def _train_multileg(legs: Network, head: DenseLayer, X, y, config: TrainConfig,
                    what: str) -> Network:
    """Joint SGD over a copy of the stacked ``legs`` and, in place, one head
    on their concatenated features; returns the trained legs.

    One :func:`stack_forward` and one :func:`stack_backward` per batch.
    """
    legs = legs.clone()
    n_legs = len(legs.layers[0].weights)

    def loss_and_grad(idx):
        acts = stack_forward(legs.layers, X[idx])
        feat = np.concatenate(acts[-1], axis=1)
        loss, d_logits = cross_entropy_loss(feat @ head.weights.T + head.bias, y[idx])
        d_out = np.stack(np.hsplit(d_logits @ head.weights, n_legs))
        grads = stack_backward(legs.layers, acts, d_out)
        return loss, grads + [d_logits.T @ feat, d_logits.sum(axis=0)]

    with named(f"{what} with seed {config.seed} diverged: ", seed=config.seed):
        sgd_fit(layer_params([*legs.layers, head]), loss_and_grad, X.shape[0], config)
    return legs


def naive_finetune(bank: RepresentationBank, data: Dataset,
                   config: TrainConfig) -> tuple[RepresentationBank, DenseLayer]:
    """Fine-tune the concatenated trunk and a fresh joint head in one episode."""
    head = glorot_layer(data.n_classes, bank.total_dim, SplitMix64(config.seed))
    legs = _train_multileg(bank.trunk, head, data.X, data.y, config, "naive fine-tune")
    return RepresentationBank(legs), head


def joint_train(data: Dataset, hidden, n_legs: int,
                config: TrainConfig) -> tuple[RepresentationBank, DenseLayer]:
    """Train ``n_legs`` parallel trunks under a single head from one seed."""
    if n_legs < 1:
        raise ParameterError("need at least one leg")
    rng = SplitMix64(config.seed)
    legs = stack_nets([init_trunk([data.d, *hidden], rng) for _ in range(n_legs)])
    head = glorot_layer(data.n_classes, legs.n_out * n_legs, rng)
    legs = _train_multileg(legs, head, data.X, data.y, config, "joint training")
    return RepresentationBank(legs), head


# ---------------------------------------------------------------------------
# two-stage fine-tuning

def concat_head_init(weights, biases) -> DenseLayer:
    """Final classifier init: the leg classifiers' ``weights`` side by side and
    their ``biases`` summed, both over the number of legs n."""
    n = len(weights)
    return DenseLayer(np.hstack(weights) / n, sum(biases) / n, "linear")


def two_stage_finetune(
    bank: RepresentationBank,
    data: Dataset,
    ft_config: TrainConfig,
    stage2_epochs: int = 1,
    stage2_lr: float = 1e-3,
) -> tuple[RepresentationBank, DenseLayer]:
    """Fine-tune each leg separately, freeze, then train a concatenated head.

    Stage 1 trains every member with its own fresh classifier on the
    target data; the legs train as one stack, and a divergence names the
    leg as its member.  Stage 2 initializes the final classifier from the
    stacked leg classifiers (so before any step its logits equal the mean
    of the leg logits) and trains it briefly on frozen features; with 0
    epochs it takes no step.
    """
    leg_seeds = [derive_seed(ft_config.seed, i) for i in range(len(bank))]
    heads = stack_layers([glorot_layer(data.n_classes, bank.trunk.n_out, SplitMix64(seed))
                          for seed in leg_seeds])
    with named(f"stage-1 fine-tune with seed {ft_config.seed} diverged: ", seed=ft_config.seed):
        ft_bank = _headed_bank(train(Network([*bank.trunk.layers, heads]), data.X, data.y,
                                     ft_config, seeds=leg_seeds)[0])
    cfg = TrainConfig(lr=stage2_lr, epochs=stage2_epochs, batch_size=ft_config.batch_size,
                      momentum=ft_config.momentum, seed=derive_seed(ft_config.seed, len(bank) + 1))
    final = concat_head_init(ft_bank.head.weights, ft_bank.head.bias[:, 0])
    with named(f"stage-2 fine-tune with seed {cfg.seed} diverged: ", seed=cfg.seed):
        final = train(Network([final]), cat_features(ft_bank, data.X), data.y, cfg)[0].layers[0]
    return ft_bank, final


def bank_head_accuracy(bank: RepresentationBank, head: DenseLayer, X, y) -> float:
    return accuracy(Network([head]), cat_features(bank, X), y)


def leg_logits(bank: RepresentationBank, X) -> np.ndarray:
    """(T, n, k) logits of every member's own saved classifier on its features."""
    if bank.head is None:
        raise ParameterError("bank has no per-leg heads")
    return extract_features(Network([*bank.trunk.layers, bank.head]), X)


# ---------------------------------------------------------------------------
# per-leg probing disparity

def leg_probe_gap(bank: RepresentationBank, data: Dataset,
                  cache: ProbeCache) -> tuple[list[float], float]:
    """Fit a probe per leg on that leg's features; return accuracies + max gap."""
    probes = cache.fit(extract_features(bank.trunk, data.X), data.y, data.n_classes)
    accs = [probe.train_accuracy for probe in probes]
    return accs, float(max(accs) - min(accs))
