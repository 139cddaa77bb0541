"""Rich-representation constructions.

A representation here is the output of a head-less trunk network.  The
constructions below build banks of such trunks from independent training
episodes, from snapshots of a single high-step-size episode, or from
joint training of a multi-leg trunk, and combine them by concatenation,
ensembling, distillation into a single student, or two-stage fine-tuning.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core_nn.layers import (
    DenseLayer,
    Network,
    as_feature_matrix,
    extract_features,
    glorot_layer,
    init_network,
    layer_params,
    load_network,
    save_network,
    stack_backward,
    stack_forward,
    stack_layers,
    unstack_into,
)
from .core_nn.losses import (
    ce_kl_distill_loss,
    cosine_distill_loss,
    cross_entropy_loss,
    distill_to_log_probs,
    kl_distill_loss,
    softmax_temperature,
    tempered_log_probs,
)
from .core_nn.optim import TrainConfig, sgd_fit
from .core_nn.train import train
from .errors import (
    EpisodeError,
    ParameterError,
    ShapeError,
    TrainingError,
)
from .probing import ProbeCache, ProbeResult, fit_probe
from .rng import SplitMix64, derive_seed
from .tasks import Dataset

PROVENANCES = ("independent_episodes", "snapshots", "joint_training")


@dataclass
class RepresentationBank:
    """Ordered collection of feature extractors with their training seeds.

    ``heads`` keeps the classifier each episode ended with (used as the
    frozen teacher heads in distillation and to initialize the two-stage
    fine-tuning classifier); joint-training banks have no per-leg heads.
    """

    extractors: list[Network]
    dims: list[int]
    seeds: list[int]
    provenance: str
    heads: list[DenseLayer] | None = None

    def __post_init__(self):
        if not self.extractors:
            raise ParameterError("a bank needs at least one extractor")
        if self.provenance not in PROVENANCES:
            raise ParameterError(f"unknown provenance {self.provenance!r}")
        if len(self.dims) != len(self.extractors) or len(self.seeds) != len(self.extractors):
            raise ParameterError("dims and seeds must align with extractors")
        for net, dim in zip(self.extractors, self.dims):
            if net.layers[-1].n_out != dim:
                raise ShapeError("recorded dim does not match extractor output width")
        if self.heads is not None and len(self.heads) != len(self.extractors):
            raise ParameterError("one saved head per extractor required")

    def __len__(self) -> int:
        return len(self.extractors)

    @property
    def total_dim(self) -> int:
        return int(sum(self.dims))

    def member(self, i: int) -> "RepresentationBank":
        """Single-extractor bank holding a value-isolated copy of member ``i``."""
        head = [_clone_layer(self.heads[i])] if self.heads is not None else None
        return RepresentationBank(
            [self.extractors[i].clone()], [self.dims[i]], [self.seeds[i]],
            self.provenance, head,
        )


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


def _groups(keys) -> list[list[int]]:
    """Positions of equal keys, one list per distinct key in order of first appearance."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _layer_key(layer: DenseLayer) -> tuple:
    """What layers must share to train as one stack."""
    return layer.weights.shape, layer.activation


def _slots(groups) -> list[tuple[int, int]]:
    """``(group, position in group)`` of every member, in member order."""
    where = {i: (g, j) for g, members in enumerate(groups) for j, i in enumerate(members)}
    return [where[i] for i in range(len(where))]


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

    The nets of one shape train as one stack through one :func:`train`,
    which gives each the bits it would get alone.  A stack stops at the
    first member to diverge, which need not be the first in order, so on
    a divergence the nets are retrained one by one and the error names
    ``names[i]`` of the first net that diverges, as a loop over them would.
    """
    groups = _groups([tuple(map(_layer_key, net.layers)) for net in nets])
    try:
        stacks = [train(Network(_stack_nets([nets[i] for i in members])), data.X, data.y,
                        config, seeds=[seeds[i] for i in members])[0]
                  for members in groups]
    except TrainingError:
        for net, seed, name in zip(nets, seeds, names):
            try:
                net.layers = train(net, data.X, data.y, config.with_seed(seed))[0].layers
            except TrainingError as exc:
                raise EpisodeError(f"{name} diverged: {exc}", seed=seed,
                                   epoch=exc.epoch) from exc
        return
    for members, stack in zip(groups, stacks):
        _unstack_nets([nets[i] for i in members], stack.layers)


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
    extractors, heads = zip(*map(split_head, nets))
    return RepresentationBank(list(extractors), [t.layers[-1].n_out for t in extractors],
                              seeds, "independent_episodes", list(heads))


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
    extractors, heads, dims = [], [], []
    for e in snaps:
        trunk, head = split_head(captured[e])
        extractors.append(trunk)
        heads.append(head)
        dims.append(trunk.layers[-1].n_out)
    return RepresentationBank(extractors, dims, [config.seed] * len(snaps),
                              "snapshots", heads)


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
            config: TrainConfig, student_init: Network | None = None,
            head_inits: list[DenseLayer] | None = None) -> Network:
    """Train one student trunk with one output head per frozen teacher.

    The per-teacher losses are summed; gradients flow through the shared
    trunk and the heads only.  Returns the trunk (heads discarded).
    ``student_init``/``head_inits`` override the seeded initialization
    (warm starts; both default to fresh Glorot draws from the config seed).
    """
    if data.n == 0:
        raise ParameterError("distillation data is empty")
    X, y = data.X, data.y
    targets = _teacher_targets(bank, spec, X)

    rng = SplitMix64(config.seed)
    if student_init is None:
        trunk = init_trunk([data.d, *spec.student_arch], seed=config.seed)
    else:
        trunk = student_init.clone()
    feat_dim = trunk.layers[-1].n_out
    if head_inits is None:
        heads = [glorot_layer(tgt.shape[1], feat_dim, rng) for tgt in targets]
    else:
        heads = [_clone_layer(h) for h in head_inits]
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
    """SGD over the trunk and the heads; the heads of one shape train as one stack.

    Per batch each stack makes one head product, one loss call and one
    head-gradient product.  The per-teacher losses and trunk-gradient
    terms are then added in teacher order, from zero, as a loop over the
    heads would add them.
    """
    tau = float(spec.tau)
    alpha = float(spec.alpha) if spec.mode == "ce_kl" else 1.0
    groups = _groups([_layer_key(head) for head in heads])
    stacks = [stack_layers([heads[i] for i in members]) for members in groups]
    targets = [np.stack([targets[i] for i in members]) for members in groups]
    if spec.mode != "cosine":
        # the tempered teacher targets are fixed: one log_softmax per stack
        targets = [tempered_log_probs(tgt, tau) for tgt in targets]
    slots = _slots(groups)

    def loss_and_grad(idx):
        yb = y[idx]
        acts, pres = stack_forward(trunk.layers, X[idx])
        feat = acts[-1]
        losses, d_feats, head_grads = [], [], []
        for head, tgt in zip(stacks, targets):
            out = feat @ head.weights.swapaxes(-1, -2)
            out += head.bias
            if spec.mode == "cosine":
                loss, d_out = cosine_distill_loss(tgt[:, idx], out)
            else:
                logp, p = tgt
                loss, d_out = distill_to_log_probs(logp[:, idx], p[:, idx], out, tau, yb, alpha)
            losses.append(loss)
            d_feats.append(d_out @ head.weights)
            head_grads += (d_out.swapaxes(-1, -2) @ feat, d_out.sum(axis=-2, keepdims=True))
        batch_loss, d_feat = 0.0, np.zeros_like(feat)
        for g, j in slots:
            batch_loss += losses[g][j]
            d_feat += d_feats[g][j]
        return batch_loss, head_grads + stack_backward(trunk.layers, acts, pres, d_feat)

    # the heads come first, so a divergence that reaches them names the teacher
    _fit_episode("distillation", layer_params(stacks + trunk.layers), loss_and_grad,
                 X.shape[0], config)
    return trunk


def distill_loss_value(bank: RepresentationBank, spec: DistillSpec, data: Dataset,
                       trunk: Network, heads: list[DenseLayer]) -> float:
    """Summed per-teacher distillation loss of a given student (diagnostics)."""
    targets = _teacher_targets(bank, spec, data.X)
    feat = extract_features(trunk, data.X)
    total = 0.0
    for head, tgt in zip(heads, targets):
        out = feat @ head.weights.T + head.bias
        if spec.mode == "kl":
            loss, _ = kl_distill_loss(tgt, out, spec.tau)
        elif spec.mode == "ce_kl":
            loss, _ = ce_kl_distill_loss(tgt, out, data.y, spec.alpha, spec.tau)
        else:
            loss, _ = cosine_distill_loss(tgt, out)
        total += loss
    return float(total)


# ---------------------------------------------------------------------------
# multi-leg networks: naive fine-tuning of a concatenated trunk, and the
# joint-training baseline (n parallel legs under a single head, one seed)

@dataclass
class MultiLegNetwork:
    legs: list[Network]
    head: DenseLayer

    def __post_init__(self):
        total = sum(leg.layers[-1].n_out for leg in self.legs)
        if self.head.n_in != total:
            raise ShapeError("joint head width does not match concatenated legs")

    @property
    def n_in(self) -> int:
        return self.legs[0].n_in

    def features(self, X) -> np.ndarray:
        X = as_feature_matrix(X)
        return np.hstack([extract_features(leg, X) for leg in self.legs])

    def logits(self, X) -> np.ndarray:
        f = self.features(X)
        return f @ self.head.weights.T + self.head.bias

    def accuracy(self, X, y) -> float:
        return float((self.logits(X).argmax(axis=1) == np.asarray(y)).mean())


def _train_multileg(mln: MultiLegNetwork, X, y, config: TrainConfig, what: str) -> None:
    """In-place joint SGD over the legs and the head.

    Legs of one shape train as one stacked layer list, one
    :func:`stack_forward` and one :func:`stack_backward` per batch; the
    trained values are copied back into ``mln.legs`` at the end.
    """
    groups = _groups([tuple(map(_layer_key, leg.layers)) for leg in mln.legs])
    stacks = [_stack_nets([mln.legs[i] for i in members]) for members in groups]
    slots = _slots(groups)
    offsets = np.cumsum([0, *(leg.layers[-1].n_out for leg in mln.legs)])
    head = mln.head

    def loss_and_grad(idx):
        xb = X[idx]
        caches = [stack_forward(layers, xb) for layers in stacks]
        feat = np.hstack([caches[g][0][-1][j] for g, j in slots])
        loss, d_logits = cross_entropy_loss(feat @ head.weights.T + head.bias, y[idx])
        d_feat = d_logits @ head.weights
        grads = []
        for members, layers, (acts, pres) in zip(groups, stacks, caches):
            d_out = np.stack([d_feat[:, offsets[i]:offsets[i + 1]] for i in members])
            grads += stack_backward(layers, acts, pres, d_out)
        return loss, grads + [d_logits.T @ feat, d_logits.sum(axis=0)]

    layers = [layer for group in stacks for layer in group] + [head]
    _fit_episode(what, layer_params(layers), loss_and_grad, X.shape[0], config)
    for members, group in zip(groups, stacks):
        _unstack_nets([mln.legs[i] for i in members], group)


def naive_finetune(bank: RepresentationBank, data: Dataset,
                   config: TrainConfig) -> MultiLegNetwork:
    """Fine-tune the concatenated trunk and a fresh joint head in one episode."""
    legs = [trunk.clone() for trunk in bank.extractors]
    head_rng = SplitMix64(config.seed)
    head = glorot_layer(data.n_classes, int(sum(bank.dims)), head_rng)
    mln = MultiLegNetwork(legs, head)
    _train_multileg(mln, data.X, data.y, config, "naive fine-tune")
    return mln


def joint_train(data: Dataset, hidden, n_legs: int, config: TrainConfig) -> MultiLegNetwork:
    """Train ``n_legs`` parallel trunks under a single head from one seed."""
    if n_legs < 1:
        raise ParameterError("need at least one leg")
    rng = SplitMix64(config.seed)
    legs = []
    sizes = [data.d, *hidden]
    for _ in range(n_legs):
        layers = [glorot_layer(sizes[i + 1], sizes[i], rng, "relu")
                  for i in range(len(sizes) - 1)]
        legs.append(Network(layers))
    head = glorot_layer(data.n_classes, n_legs * sizes[-1], rng)
    mln = MultiLegNetwork(legs, head)
    _train_multileg(mln, data.X, data.y, config, "joint training")
    return mln


def bank_from_multileg(mln: MultiLegNetwork, seed: int) -> RepresentationBank:
    """View the legs of a jointly trained network as a bank (no per-leg heads)."""
    legs = [leg.clone() for leg in mln.legs]
    dims = [leg.layers[-1].n_out for leg in legs]
    return RepresentationBank(legs, dims, [seed] * len(legs), "joint_training", None)


def bank_of_trunks(trunks, seeds, provenance: str = "independent_episodes",
                   heads=None) -> RepresentationBank:
    trunks = [t.clone() for t in trunks]
    dims = [t.layers[-1].n_out for t in trunks]
    return RepresentationBank(trunks, dims, [int(s) for s in seeds], provenance,
                              None if heads is None else [_clone_layer(h) for h in heads])


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
    target data; the legs of one shape train as one stack.  Stage 2
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
    ft_bank = RepresentationBank(ft_trunks, list(bank.dims), list(bank.seeds),
                                 bank.provenance, ft_heads)

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

    Probes that ``cache`` holds are reused.  The other extractors of equal
    width are fitted as one stacked problem, which gives each the probe it
    would get alone, bit for bit; a lone one is fitted unstacked.
    """
    feats = [extract_features(trunk, data.X) for trunk in bank.extractors]
    keys = [cache.key(f, data.y, data.n_classes) for f in feats]
    probes = [cache.probes.get(key) for key in keys]
    for members in _groups(bank.dims):
        miss = [i for i in members if probes[i] is None]
        if len(miss) == 1:
            probes[miss[0]] = cache.fit(feats[miss[0]], data.y, data.n_classes)
        elif miss:
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


# ---------------------------------------------------------------------------
# bank serialization: per-extractor RRNN files plus a JSON manifest

def config_hash(config: TrainConfig) -> str:
    payload = {
        "lr": config.lr,
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "momentum": config.momentum,
        "weight_decay": config.weight_decay,
        "schedule": [config.schedule.kind, config.schedule.factor, config.schedule.every],
        "seed": config.seed,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def save_bank(bank: RepresentationBank, directory, train_config: TrainConfig | None = None) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    extractor_files, head_files = [], None
    for i, trunk in enumerate(bank.extractors):
        name = f"extractor_{i:02d}.rrnn"
        save_network(trunk, directory / name)
        extractor_files.append(name)
    if bank.heads is not None:
        head_files = []
        for i, head in enumerate(bank.heads):
            name = f"head_{i:02d}.rrnn"
            save_network(Network([head]), directory / name)
            head_files.append(name)
    manifest = {
        "format": "richlab-bank",
        "version": 1,
        "provenance": bank.provenance,
        "seeds": bank.seeds,
        "dims": bank.dims,
        "extractors": extractor_files,
        "heads": head_files,
        "config_hash": config_hash(train_config) if train_config else None,
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def load_bank(directory) -> RepresentationBank:
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    extractors = [load_network(directory / name) for name in manifest["extractors"]]
    heads = None
    if manifest["heads"] is not None:
        heads = [load_network(directory / name).layers[0] for name in manifest["heads"]]
    return RepresentationBank(extractors, list(manifest["dims"]),
                              list(manifest["seeds"]), manifest["provenance"], heads)
