"""Rich-representation constructions.

A representation here is a :class:`RepresentationBank`: one or more
head-less trunks whose features concatenate, with the classifier each
trunk ended with when it has one of its own.  The constructions below
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
    as_feature_matrix,
    extract_features,
    glorot_layer,
    init_network,
    layer_params,
    stack_backward,
    stack_forward,
    stack_layers,
    unstack_into,
)
from .core_nn.losses import (
    cosine_distill_loss,
    cross_entropy_loss,
    distill_to_log_probs,
    softmax_temperature,
    tempered_log_probs,
)
from .core_nn.optim import TrainConfig, sgd_fit
from .core_nn.train import train
from .errors import EpisodeError, ParameterError, ShapeError, TrainingError
from .probing import ProbeCache, ProbeResult, fit_probe
from .rng import SplitMix64, derive_seed
from .tasks import Dataset


@dataclass
class RepresentationBank:
    """Ordered trunks whose features concatenate into one representation.

    ``heads`` keeps the classifier each trunk ended with (used as the
    frozen teacher heads in distillation and to initialize the two-stage
    fine-tuning classifier); trunks trained under a shared head, and a
    distilled student, have none.  A bank holds one architecture: every
    trunk, and every head, has the layer shapes and activations of the
    first, so the members of a bank always train as one stack.
    """

    extractors: list[Network]
    heads: list[DenseLayer] | None = None

    def __post_init__(self):
        if not self.extractors:
            raise ParameterError("a bank needs at least one extractor")
        if self.heads is not None and len(self.heads) != len(self.extractors):
            raise ParameterError("one saved head per extractor required")
        heads = [[head] for head in self.heads] if self.heads is not None else [[]] * len(self)
        archs = [[(layer.weights.shape, layer.activation) for layer in [*net.layers, *head]]
                 for net, head in zip(self.extractors, heads)]
        for i, arch in enumerate(archs):
            if arch != archs[0]:
                raise ShapeError(f"bank member {i} differs from member 0 in a layer's shape "
                                 f"or activation: {arch} against {archs[0]}")

    def __len__(self) -> int:
        return len(self.extractors)

    @property
    def dims(self) -> list[int]:
        """Output width of each extractor."""
        return [net.layers[-1].n_out for net in self.extractors]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def member(self, i: int) -> "RepresentationBank":
        """Single-extractor bank holding a value-isolated copy of member ``i``."""
        head = [_clone_layer(self.heads[i])] if self.heads is not None else None
        return RepresentationBank([self.extractors[i].clone()], head)


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
            raise ParameterError(f"unknown distillation mode {self.mode!r}")
        if self.tau <= 0:
            raise ParameterError("temperature must be positive")
        if not (0.0 <= self.alpha <= 1.0):
            raise ParameterError("alpha must lie in [0, 1]")
        if not self.student_arch:
            raise ParameterError("student_arch must list at least one width")


def _clone_layer(layer: DenseLayer) -> DenseLayer:
    return DenseLayer(layer.weights.copy(), layer.bias.copy(), layer.activation)


def _stack_nets(nets) -> list[DenseLayer]:
    """The layers of equal-shaped ``nets`` as one stacked layer per depth."""
    return [stack_layers(depth) for depth in zip(*(net.layers for net in nets))]


def _unstack_nets(nets, stacked) -> None:
    """Copy each member of the stacked layers back into the matching net."""
    for depth, layer in enumerate(stacked):
        unstack_into([net.layers[depth] for net in nets], layer)


def init_trunk(sizes, seed: int, activation: str = "relu") -> Network:
    """Head-less trunk: every layer keeps the hidden activation."""
    sizes = list(sizes)
    if len(sizes) < 2:
        raise ParameterError("trunk sizes must list input and at least one width")
    rng = SplitMix64(seed)
    layers = [glorot_layer(sizes[i + 1], sizes[i], rng, activation) for i in range(len(sizes) - 1)]
    return Network(layers)


def split_head(net: Network) -> tuple[Network, DenseLayer]:
    """Split a trained network into (trunk, classifier head)."""
    if len(net.layers) < 2:
        raise ParameterError("network needs a hidden layer to yield a trunk")
    trunk = Network([_clone_layer(l) for l in net.layers[:-1]])
    return trunk, _clone_layer(net.layers[-1])


# ---------------------------------------------------------------------------
# bank builders

def _train_members(nets, data: Dataset, config: TrainConfig, seeds, names) -> None:
    """Train each of ``nets`` in place, net ``i`` on the batch order of ``seeds[i]``.

    The nets share one architecture and train as one stack through one
    :func:`train`, which gives each the bits it would get alone.  A stack
    stops at the first member to diverge, which need not be the first in
    order, so on a divergence the nets are retrained one by one and the
    error names ``names[i]`` of the first net that diverges, as a loop over
    them would.
    """
    try:
        stack = train(Network(_stack_nets(nets)), data.X, data.y, config, seeds=seeds)[0]
    except TrainingError:
        for net, seed, name in zip(nets, seeds, names):
            try:
                net.layers = train(net, data.X, data.y, config.with_seed(seed))[0].layers
            except TrainingError as exc:
                raise EpisodeError(f"{name} diverged: {exc}", seed=seed,
                                   epoch=exc.epoch) from exc
        return
    _unstack_nets(nets, stack.layers)


def train_episodes(data: Dataset, hidden, base_config: TrainConfig, seeds) -> RepresentationBank:
    """Independently train one episode per seed; everything else identical.

    The episodes train as one stack, each on its own seed's initialization
    and batch order, bit for bit as one at a time.
    """
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ParameterError("need at least one seed")
    sizes = [data.d, *hidden, data.n_classes]
    nets = [init_network(sizes, seed=s) for s in seeds]
    _train_members(nets, data, base_config, seeds, [f"episode with seed {s}" for s in seeds])
    extractors, heads = map(list, zip(*map(split_head, nets)))
    return RepresentationBank(extractors, heads)


def snapshot_episode(data: Dataset, hidden, config: TrainConfig,
                     snapshot_epochs) -> RepresentationBank:
    """Capture parameter snapshots of one training run at the listed epochs.

    ``snapshot_epochs`` counts completed epochs (ascending, each within
    ``config.epochs``); a snapshot at epoch ``E`` equals the final model
    of an ``E``-epoch run with the same seed.
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

    try:
        train(net, data.X, data.y, config, on_epoch_end=grab)
    except TrainingError as exc:
        raise EpisodeError(f"snapshot episode diverged: {exc}", seed=config.seed,
                           epoch=exc.epoch) from exc
    extractors, heads = map(list, zip(*(split_head(captured[e]) for e in snaps)))
    return RepresentationBank(extractors, heads)


# ---------------------------------------------------------------------------
# concatenation and ensembling

def cat_features(bank: RepresentationBank, X) -> np.ndarray:
    """Column-concatenated features, one contiguous block per extractor."""
    X = as_feature_matrix(X)
    return np.hstack([extract_features(trunk, X) for trunk in bank.extractors])


def subset_ensemble_predict(bank: RepresentationBank, probes: list[ProbeResult],
                            X) -> np.ndarray:
    """Average of per-extractor probe softmax outputs (rows sum to 1)."""
    if len(probes) != len(bank):
        raise ParameterError(
            f"{len(bank)} extractors but {len(probes)} probes"
        )
    X = as_feature_matrix(X)
    out = None
    for trunk, probe in zip(bank.extractors, probes):
        p = softmax_temperature(probe.logits(extract_features(trunk, X)), 1.0)
        out = p if out is None else out + p
    return out / len(probes)


# ---------------------------------------------------------------------------
# distillation

def _teacher_targets(bank: RepresentationBank, spec: DistillSpec, X: np.ndarray):
    """Frozen per-teacher targets: logits for kl/ce_kl, features for cosine."""
    targets = []
    for i, trunk in enumerate(bank.extractors):
        feats = extract_features(trunk, X)
        if spec.mode == "cosine":
            targets.append(feats)
        else:
            if bank.heads is None:
                raise ParameterError(
                    "kl/ce_kl distillation needs the saved teacher heads"
                )
            head = bank.heads[i]
            targets.append(feats @ head.weights.T + head.bias)
    return targets


def distill(bank: RepresentationBank, spec: DistillSpec, data: Dataset,
            config: TrainConfig) -> Network:
    """Train one student trunk with one output head per frozen teacher.

    The per-teacher losses are summed; gradients flow through the shared
    trunk and the heads only.  Returns the trunk (heads discarded).  The
    trunk and the heads start from Glorot draws of the config seed.
    """
    if data.n == 0:
        raise ParameterError("distillation data is empty")
    X, y = data.X, data.y
    targets = _teacher_targets(bank, spec, X)
    trunk = init_trunk([data.d, *spec.student_arch], seed=config.seed)
    rng = SplitMix64(config.seed)
    heads = [glorot_layer(tgt.shape[1], trunk.layers[-1].n_out, rng) for tgt in targets]
    return _distill_train(trunk, heads, targets, spec, X, y, config)


def _fit_episode(what: str, params, loss_and_grad, n_rows: int,
                 config: TrainConfig) -> None:
    """:func:`sgd_fit` whose divergence names the episode seed."""
    try:
        sgd_fit(params, loss_and_grad, n_rows, config)
    except TrainingError as exc:
        raise EpisodeError(f"{what} with seed {config.seed} diverged: {exc}",
                           seed=config.seed, epoch=exc.epoch) from exc


def _distill_train(trunk, heads, targets, spec, X, y, config) -> Network:
    """SGD over the trunk and the heads; the heads train as one stack.

    Per batch the stack makes one head product, one loss call and one
    head-gradient product.  The per-teacher losses and trunk-gradient
    terms are then added in teacher order, from zero, as a loop over the
    heads would add them.
    """
    tau = float(spec.tau)
    alpha = float(spec.alpha) if spec.mode == "ce_kl" else 1.0
    head = stack_layers(heads)
    target = np.stack(targets)
    if spec.mode != "cosine":
        # the tempered teacher targets are fixed: one log_softmax for all
        target = tempered_log_probs(target, tau)

    def loss_and_grad(idx):
        yb = y[idx]
        acts, pres = stack_forward(trunk.layers, X[idx])
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
        return batch_loss, head_grads + stack_backward(trunk.layers, acts, pres, d_feat)

    # the heads come first, so a divergence that reaches them names the teacher
    _fit_episode("distillation", layer_params([head, *trunk.layers]), loss_and_grad,
                 X.shape[0], config)
    return trunk


# ---------------------------------------------------------------------------
# legs under one head: naive fine-tuning of a concatenated trunk, and the
# joint-training baseline (n parallel legs under a single head, one seed)

def _train_multileg(legs: list[Network], head: DenseLayer, X, y, config: TrainConfig,
                    what: str) -> None:
    """In-place joint SGD over the legs and one head on their concatenated features.

    The legs share one architecture and train as one stacked layer list,
    one :func:`stack_forward` and one :func:`stack_backward` per batch; the
    trained values are copied back into ``legs`` at the end.
    """
    stack = _stack_nets(legs)

    def loss_and_grad(idx):
        acts, pres = stack_forward(stack, X[idx])
        feat = np.concatenate(acts[-1], axis=1)
        loss, d_logits = cross_entropy_loss(feat @ head.weights.T + head.bias, y[idx])
        d_out = np.stack(np.hsplit(d_logits @ head.weights, len(legs)))
        grads = stack_backward(stack, acts, pres, d_out)
        return loss, grads + [d_logits.T @ feat, d_logits.sum(axis=0)]

    _fit_episode(what, layer_params([*stack, head]), loss_and_grad, X.shape[0], config)
    _unstack_nets(legs, stack)


def naive_finetune(bank: RepresentationBank, data: Dataset,
                   config: TrainConfig) -> tuple[RepresentationBank, DenseLayer]:
    """Fine-tune the concatenated trunk and a fresh joint head in one episode."""
    legs = [trunk.clone() for trunk in bank.extractors]
    head = glorot_layer(data.n_classes, bank.total_dim, SplitMix64(config.seed))
    _train_multileg(legs, head, data.X, data.y, config, "naive fine-tune")
    return RepresentationBank(legs), head


def joint_train(data: Dataset, hidden, n_legs: int,
                config: TrainConfig) -> tuple[RepresentationBank, DenseLayer]:
    """Train ``n_legs`` parallel trunks under a single head from one seed."""
    if n_legs < 1:
        raise ParameterError("need at least one leg")
    rng = SplitMix64(config.seed)
    sizes = [data.d, *hidden]
    legs = [Network([glorot_layer(sizes[i + 1], sizes[i], rng, "relu")
                     for i in range(len(sizes) - 1)])
            for _ in range(n_legs)]
    head = glorot_layer(data.n_classes, n_legs * sizes[-1], rng)
    _train_multileg(legs, head, data.X, data.y, config, "joint training")
    return RepresentationBank(legs), head


# ---------------------------------------------------------------------------
# two-stage fine-tuning

def concat_head_init(heads: list[DenseLayer]) -> DenseLayer:
    """Final classifier init: horizontally stacked leg classifiers over n."""
    n = len(heads)
    W = np.hstack([h.weights for h in heads]) / n
    b = sum(h.bias for h in heads) / n
    return DenseLayer(W, b, "linear")


def two_stage_finetune(
    bank: RepresentationBank,
    data: Dataset,
    ft_config: TrainConfig,
    stage2_epochs: int = 1,
    stage2_lr: float = 1e-3,
) -> tuple[RepresentationBank, DenseLayer]:
    """Fine-tune each leg separately, freeze, then train a concatenated head.

    Stage 1 trains every extractor with its own fresh classifier on the
    target data; the legs train as one stack.  Stage 2
    initializes the final classifier from the stacked leg classifiers (so
    before any step its logits equal the mean of the leg logits) and
    trains it briefly on frozen features.
    """
    leg_seeds = [derive_seed(ft_config.seed, i) for i in range(len(bank))]
    nets = [Network([*map(_clone_layer, trunk.layers),
                     glorot_layer(data.n_classes, dim, SplitMix64(seed))])
            for trunk, dim, seed in zip(bank.extractors, bank.dims, leg_seeds)]
    _train_members(nets, data, ft_config, leg_seeds,
                   [f"stage-1 fine-tune of leg {i}" for i in range(len(nets))])
    ft_trunks, ft_heads = map(list, zip(*map(split_head, nets)))
    ft_bank = RepresentationBank(ft_trunks, ft_heads)

    final = concat_head_init(ft_heads)
    if stage2_epochs > 0:
        feats = cat_features(ft_bank, data.X)
        head_net = Network([final])
        cfg = TrainConfig(
            lr=stage2_lr,
            epochs=stage2_epochs,
            batch_size=ft_config.batch_size,
            momentum=ft_config.momentum,
            weight_decay=0.0,
            seed=derive_seed(ft_config.seed, len(bank) + 1),
        )
        trained_head, _ = train(head_net, feats, data.y, cfg)
        final = trained_head.layers[0]
    return ft_bank, final


def bank_head_logits(bank: RepresentationBank, head: DenseLayer, X) -> np.ndarray:
    feats = cat_features(bank, X)
    return feats @ head.weights.T + head.bias


def bank_head_accuracy(bank: RepresentationBank, head: DenseLayer, X, y) -> float:
    return float((bank_head_logits(bank, head, X).argmax(axis=1) == np.asarray(y)).mean())


def leg_logits(bank: RepresentationBank, i: int, X) -> np.ndarray:
    """Logits of leg ``i``'s own saved classifier on its features."""
    if bank.heads is None:
        raise ParameterError("bank has no per-leg heads")
    feats = extract_features(bank.extractors[i], X)
    head = bank.heads[i]
    return feats @ head.weights.T + head.bias


# ---------------------------------------------------------------------------
# per-leg probing disparity

def extractor_probes(bank: RepresentationBank, data: Dataset,
                     cache: ProbeCache) -> list[ProbeResult]:
    """One probe per extractor on its own features of the same rows.

    Probes that ``cache`` holds are reused.  The other extractors, a lone
    one included, are fitted as one stacked problem, which gives each the
    probe it would get alone, bit for bit.
    """
    feats = [extract_features(trunk, data.X) for trunk in bank.extractors]
    keys = [cache.key(f, data.y, data.n_classes) for f in feats]
    probes = [cache.probes.get(key) for key in keys]
    miss = [i for i, probe in enumerate(probes) if probe is None]
    if miss:
        stack = fit_probe(np.stack([feats[i] for i in miss]),
                          np.broadcast_to(data.y, (len(miss), data.n)),
                          cache.config, n_classes=data.n_classes)
        for j, i in enumerate(miss):
            probes[i] = cache.probes[keys[i]] = stack[j]
    return probes


def leg_probe_gap(bank: RepresentationBank, data: Dataset,
                  cache: ProbeCache) -> tuple[list[float], float]:
    """Fit a probe per leg on that leg's features; return accuracies + max gap."""
    accs = [probe.train_accuracy for probe in extractor_probes(bank, data, cache)]
    return accs, float(max(accs) - min(accs))

