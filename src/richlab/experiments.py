"""End-to-end pipelines: transfer (probe + fine-tune), few-shot
evaluation, out-of-distribution training with environment-risk
objectives and tuned model selection, plus CSV record emission.

Every pipeline is deterministic given its seeds: representation
training, classifier fitting, episode sampling, and hyper-parameter
selection all draw from derived SplitMix64 streams, and rerunning a
pipeline with the same configuration reproduces its CSV byte for byte.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .core_nn.layers import (
    CosineHead,
    Network,
    cosine_head_backward,
    cosine_head_forward,
    extract_features,
    glorot_layer,
    init_network,
    layer_params,
)
from .core_nn.losses import cross_entropy_loss, log_softmax
from .core_nn.optim import Schedule, TrainConfig, sgd_fit, sgd_step
from .core_nn.train import accuracy, network_loss_grad
from .errors import DataError, EpisodeError, NumericalError, ParameterError, TrainingError
from .probing import ProbeConfig, fit_probe
from .rng import SplitMix64, derive_seed
from .richrep import (
    DistillSpec,
    RepresentationBank,
    bank_from_multileg,
    bank_head_accuracy,
    cat_features,
    distill,
    extractor_probes,
    joint_train,
    leg_logits,
    leg_probe_gap,
    naive_finetune,
    subset_ensemble_predict,
    train_episodes,
    snapshot_episode,
    two_stage_finetune,
)
from .tasks import Dataset, EpisodeSpec, OodTask, ShiftSpec, gen_shift, pool, sample_episode, split_classes

SPLITS = ("id_train", "id_test", "ood_tune", "ood_test", "fewshot", "verify")
CSV_HEADER = "run_id,seed,method,task,split,metric,value,extra"
# load_records_csv splits lines with str.splitlines, which breaks at each of these
_LINE_BREAKS = set("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")
_TEXT_FORBIDDEN = {","} | _LINE_BREAKS
_EXTRA_FORBIDDEN = set(",;=|") | _LINE_BREAKS


# ---------------------------------------------------------------------------
# records and CSV emission

@dataclass
class RunRecord:
    run_id: str
    seed: int
    method: str
    task: str
    split: str
    metric: str
    value: float
    extra: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.split not in SPLITS:
            raise ParameterError(f"unknown split {self.split!r}")
        if not np.isfinite(self.value):
            raise DataError(f"record value must be finite, got {self.value}")


def format_extra(extra: dict[str, str]) -> str:
    parts = []
    for k in sorted(extra):
        v = str(extra[k])
        if _EXTRA_FORBIDDEN & (set(str(k)) | set(v)):
            raise DataError(f"extra field {k}={v!r} contains a reserved character")
        parts.append(f"{k}={v}")
    return "|".join(parts)


def parse_extra(text: str) -> dict[str, str]:
    if not text:
        return {}
    return dict(part.split("=", 1) for part in text.split("|"))


def records_to_csv_text(records) -> str:
    lines = [CSV_HEADER]
    seen = set()
    for r in records:
        for name in ("run_id", "method", "task", "split", "metric"):
            text = str(getattr(r, name))
            if _TEXT_FORBIDDEN & set(text):
                raise DataError(f"{name} {text!r} contains a comma or a line break")
        extra = format_extra(r.extra)
        key = (r.run_id, r.seed, r.method, r.task, r.split, r.metric, extra)
        if key in seen:
            raise DataError(f"duplicate record {key}")
        seen.add(key)
        lines.append(
            f"{r.run_id},{r.seed},{r.method},{r.task},{r.split},{r.metric},"
            f"{r.value:.6g},{extra}"
        )
    return "\n".join(lines) + "\n"


def write_records_csv(records, path) -> None:
    Path(path).write_bytes(records_to_csv_text(records).encode("utf-8"))


def load_records_csv(path) -> list[RunRecord]:
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise DataError(f"CSV header mismatch: expected {CSV_HEADER!r}")
    records = []
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        try:
            run_id, seed, method, task, split, metric, value, extra = line.split(",")
            records.append(RunRecord(run_id, int(seed), method, task, split, metric,
                                     float(value), parse_extra(extra)))
        except ValueError as exc:  # field count, number syntax, extras, record checks
            raise DataError(f"{path}: line {number}: {exc}") from exc
    return records


# ---------------------------------------------------------------------------
# task bundles and desk-scale defaults

@dataclass
class TransferTask:
    """Data bundle for transfer pipelines.

    Probes refit per distribution: the in-distribution probe trains on
    ``train`` and scores ``id_test``; the shifted probe trains on
    ``ood_train`` (a sample from the shifted distribution) and scores
    ``ood_test``.  Without ``ood_train`` the in-distribution probe is
    reused on ``ood_test``.
    """

    name: str
    train: Dataset
    id_test: Dataset | None = None
    ood_test: Dataset | None = None
    ood_train: Dataset | None = None


def default_shift_spec() -> ShiftSpec:
    """Shift task: strong spurious short cut in training environments."""
    return ShiftSpec(
        n_classes=5,
        d_core=5,
        d_spur=5,
        d_noise=10,
        core_scale=1.0,
        spur_scale=3.0,
        noise_std=0.6,
        env_correlations=(0.98, 0.95, 0.92),
        ood_correlation=0.2,
        n_per_env=300,
    )


def default_split_spec() -> ShiftSpec:
    """Ten-class variant used for class-split (base -> novel) transfer."""
    return ShiftSpec(
        n_classes=10,
        d_core=10,
        d_spur=10,
        d_noise=10,
        core_scale=1.0,
        spur_scale=3.0,
        noise_std=0.8,
        env_correlations=(0.95, 0.9, 0.85),
        ood_correlation=0.1,
        n_per_env=500,
    )


def _ood_sample(spec: ShiftSpec, seed: int, rows: int) -> Dataset:
    sample_spec = replace(spec, env_correlations=(spec.ood_correlation,),
                          n_per_env=rows)
    return gen_shift(sample_spec, seed)[0][0]


def make_shift_task(spec: ShiftSpec, seed: int, name: str = "shift",
                    ood_train_rows: int = 600, ood_test_rows: int = 1500) -> TransferTask:
    """Shift task with enlarged shifted splits (keeps evaluation noise small
    relative to the few-point effects being measured)."""
    train_envs, id_test, _ = gen_shift(spec, seed)
    ood_train = _ood_sample(spec, derive_seed(seed, 7), ood_train_rows)
    ood_test = _ood_sample(spec, derive_seed(seed, 8), ood_test_rows)
    return TransferTask(name, pool(train_envs), id_test, ood_test, ood_train)


def make_class_split_tasks(
    spec: ShiftSpec, seed: int, base_classes, novel_classes,
    base_name: str = "base", novel_name: str = "novel",
    ood_train_rows: int = 600, ood_test_rows: int = 1500,
) -> tuple[TransferTask, TransferTask]:
    train_envs, id_test, _ = gen_shift(spec, seed)
    ood_train = _ood_sample(spec, derive_seed(seed, 7), ood_train_rows)
    ood_test = _ood_sample(spec, derive_seed(seed, 8), ood_test_rows)
    train = pool(train_envs)
    base_tr, novel_tr = split_classes(train, base_classes, novel_classes)
    base_id, novel_id = split_classes(id_test, base_classes, novel_classes)
    base_ood, novel_ood = split_classes(ood_test, base_classes, novel_classes)
    base_otr, novel_otr = split_classes(ood_train, base_classes, novel_classes)
    return (
        TransferTask(base_name, base_tr, base_id, base_ood, base_otr),
        TransferTask(novel_name, novel_tr, novel_id, novel_ood, novel_otr),
    )


def make_ft_target(spec: ShiftSpec, seed: int, n_rows: int,
                   name: str = "shift-target") -> TransferTask:
    """Small fine-tuning target drawn at the OOD correlation.

    Fine-tuning data is scarce and shifted; evaluation uses a large fresh
    sample from the same shifted distribution.
    """
    sample_spec = replace(spec, n_per_env=n_rows,
                          env_correlations=(spec.ood_correlation,))
    train_envs, _, _ = gen_shift(sample_spec, seed)
    eval_spec = replace(spec, env_correlations=(spec.ood_correlation,))
    _, _, ood_eval = gen_shift(eval_spec, derive_seed(seed, 1))
    return TransferTask(name, train_envs[0], None, ood_eval)


# ---------------------------------------------------------------------------
# transfer pipeline

@dataclass
class TransferConfig:
    hidden: tuple[int, ...] = (16,)
    train: TrainConfig = field(default_factory=lambda: TrainConfig(
        lr=0.1, epochs=100, batch_size=32, momentum=0.9,
        schedule=Schedule.cosine()))
    probe: ProbeConfig = field(default_factory=lambda: ProbeConfig(
        l2=1e-3, max_iters=800, grad_tol=1e-7, standardize=True))
    distill: DistillSpec = field(default_factory=lambda: DistillSpec(
        mode="kl", tau=10.0, alpha=0.9, student_arch=(16,)))
    distill_train: TrainConfig = field(default_factory=lambda: TrainConfig(
        lr=0.01, epochs=200, batch_size=32, momentum=0.9,
        schedule=Schedule.cosine()))
    ft: TrainConfig = field(default_factory=lambda: TrainConfig(
        lr=0.02, epochs=30, batch_size=16, momentum=0.9))
    stage2_epochs: int = 1
    stage2_lr: float = 1e-3
    seeds: tuple[int, ...] = (101, 202, 303, 404, 505)
    methods: tuple[str, ...] = ("erm", "cat", "distill", "joint", "catsub")
    include_anchors: bool = False


def _probe_records(records, run_id, seed, method, task: TransferTask,
                   feature_fn, probe_cfg):
    feats = feature_fn(task.train.X)
    probe = fit_probe(feats, task.train.y, probe_cfg, n_classes=task.train.n_classes)
    records.append(RunRecord(run_id, seed, method, task.name, "id_train",
                             "probe_cost", probe.cost))
    records.append(RunRecord(run_id, seed, method, task.name, "id_train",
                             "probe_accuracy", probe.train_accuracy))
    if task.id_test is not None:
        acc = float((probe.predict(feature_fn(task.id_test.X)) == task.id_test.y).mean())
        records.append(RunRecord(run_id, seed, method, task.name, "id_test",
                                 "probe_accuracy", acc))
    if task.ood_test is not None:
        if task.ood_train is not None:
            ood_probe = fit_probe(feature_fn(task.ood_train.X), task.ood_train.y,
                                  probe_cfg, n_classes=task.ood_train.n_classes)
            extra = {"probe": "refit"}
        else:
            ood_probe, extra = probe, {"probe": "reuse"}
        acc = float((ood_probe.predict(feature_fn(task.ood_test.X))
                     == task.ood_test.y).mean())
        records.append(RunRecord(run_id, seed, method, task.name, "ood_test",
                                 "probe_accuracy", acc, extra))
    return probe


def run_transfer(pretrain: TransferTask, target: TransferTask, n_episodes: int,
                 cfg: TransferConfig, run_id: str = "transfer") -> list[RunRecord]:
    """Train single/concatenated/distilled/joint representations on the
    pretraining task and score probes and fine-tunes on the target task."""
    if n_episodes < 1:
        raise ParameterError("n_episodes must be positive")
    records: list[RunRecord] = []
    need_bank = bool({"erm", "cat", "distill", "catsub", "init-ft", "2ft"} & set(cfg.methods))
    for s in cfg.seeds:
        bank = None
        if need_bank:
            ep_seeds = [derive_seed(s, i) for i in range(n_episodes)]
            bank = train_episodes(pretrain.train, cfg.hidden, cfg.train, ep_seeds)

        if "erm" in cfg.methods:
            single = bank.member(0)
            _probe_records(records, run_id, s, "erm", target,
                           lambda X, b=single: cat_features(b, X), cfg.probe)
        if "cat" in cfg.methods:
            _probe_records(records, run_id, s, f"cat{n_episodes}", target,
                           lambda X, b=bank: cat_features(b, X), cfg.probe)
            accs, gap = leg_probe_gap(bank, pretrain.train, cfg.probe)
            records.append(RunRecord(run_id, s, f"cat{n_episodes}", pretrain.name,
                                     "id_train", "leg_gap", gap,
                                     {"legs": "/".join(f"{a:.4f}" for a in accs)}))
        if "distill" in cfg.methods:
            student = distill(bank, cfg.distill, pretrain.train,
                              cfg.distill_train.with_seed(derive_seed(s, 500)))
            _probe_records(records, run_id, s, f"distill{n_episodes}", target,
                           lambda X, t=student: extract_features(t, X), cfg.probe)
        if "joint" in cfg.methods:
            mln = joint_train(pretrain.train, cfg.hidden, n_episodes,
                              cfg.train.with_seed(derive_seed(s, 600)))
            jbank = bank_from_multileg(mln, derive_seed(s, 600))
            _probe_records(records, run_id, s, f"joint{n_episodes}", target,
                           lambda X, b=jbank: cat_features(b, X), cfg.probe)
            accs, gap = leg_probe_gap(jbank, pretrain.train, cfg.probe)
            records.append(RunRecord(run_id, s, f"joint{n_episodes}", pretrain.name,
                                     "id_train", "leg_gap", gap,
                                     {"legs": "/".join(f"{a:.4f}" for a in accs)}))
        if "catsub" in cfg.methods:
            fit_for = {"id_test": target.train,
                       "ood_test": target.ood_train or target.train}
            for split, ds in (("id_test", target.id_test), ("ood_test", target.ood_test)):
                if ds is None:
                    continue
                probes = extractor_probes(bank, fit_for[split], cfg.probe)
                proba = subset_ensemble_predict(bank, probes, ds.X)
                acc = float((proba.argmax(axis=1) == ds.y).mean())
                records.append(RunRecord(run_id, s, "catsub", target.name, split,
                                         "probe_accuracy", acc))
        if "init-ft" in cfg.methods:
            mln = naive_finetune(bank, target.train, cfg.ft.with_seed(derive_seed(s, 700)))
            for split, ds in (("id_test", target.id_test), ("ood_test", target.ood_test)):
                if ds is None:
                    continue
                records.append(RunRecord(run_id, s, "init-ft", target.name, split,
                                         "accuracy", mln.accuracy(ds.X, ds.y)))
        if "2ft" in cfg.methods:
            ft_bank, head = two_stage_finetune(
                bank, target.train, cfg.ft.with_seed(derive_seed(s, 800)),
                cfg.stage2_epochs, cfg.stage2_lr,
            )
            for split, ds in (("id_test", target.id_test), ("ood_test", target.ood_test)):
                if ds is None:
                    continue
                records.append(RunRecord(run_id, s, "2ft", target.name, split,
                                         "accuracy",
                                         bank_head_accuracy(ft_bank, head, ds.X, ds.y)))
                best = max(
                    float((leg_logits(ft_bank, i, ds.X).argmax(axis=1) == ds.y).mean())
                    for i in range(len(ft_bank))
                )
                records.append(RunRecord(run_id, s, "ft-best-leg", target.name, split,
                                         "accuracy", best))
    if cfg.include_anchors:
        records.extend(reference_anchor_records(run_id))
    return records


def reference_anchor_records(run_id: str) -> list[RunRecord]:
    """Published large-scale reference numbers, emitted for context only."""
    a = {"kind": "anchor", "source": "published-reference"}
    return [
        RunRecord(run_id, 0, "erm", "cifar10-to-cifar100", "id_test",
                  "probe_accuracy_mean", 49.68, {**a, "wd": "0", "std": "0.72"}),
        RunRecord(run_id, 0, "erm", "cifar10-to-cifar100", "id_test",
                  "probe_accuracy_mean", 29.17, {**a, "wd": "5e-4", "std": "0.50"}),
        RunRecord(run_id, 0, "joint2", "imagenet-legs", "id_train",
                  "leg_probe_accuracy", 73.94, {**a, "leg": "0"}),
        RunRecord(run_id, 0, "joint2", "imagenet-legs", "id_train",
                  "leg_probe_accuracy", 18.05, {**a, "leg": "1"}),
        RunRecord(run_id, 0, "cat5-s", "cub-5way-1shot", "fewshot",
                  "mean_accuracy", 72.62, {**a, "std": "0.98"}),
        RunRecord(run_id, 0, "snap-best", "cub-5way-1shot", "fewshot",
                  "mean_accuracy", 59.70, {**a, "std": "1.38"}),
    ]


# ---------------------------------------------------------------------------
# few-shot pipeline

@dataclass
class FewshotConfig:
    hidden: tuple[int, ...] = (16,)
    train: TrainConfig = field(default_factory=lambda: TrainConfig(
        lr=0.05, epochs=40, batch_size=32, momentum=0.9))
    classifier: str = "linear"  # linear | cosine
    episode_probe: ProbeConfig = field(default_factory=lambda: ProbeConfig(
        l2=1e-3, max_iters=300, grad_tol=1e-6))
    cosine_lr: float = 0.1
    cosine_epochs: int = 60
    n_snapshots: int = 5
    snapshot_lr_mult: float = 8.0
    distill: DistillSpec = field(default_factory=lambda: DistillSpec(
        mode="ce_kl", tau=10.0, alpha=0.9, student_arch=(16,)))
    distill_train: TrainConfig = field(default_factory=lambda: TrainConfig(
        lr=0.05, epochs=60, batch_size=32, momentum=0.9))
    seeds: tuple[int, ...] = (101, 202, 303, 404, 505)

    def __post_init__(self):
        if self.classifier not in ("linear", "cosine"):
            raise ParameterError(f"unknown classifier {self.classifier!r}")


def fit_cosine_classifier(feats, y, n_classes: int, seed: int, lr: float = 0.1,
                          epochs: int = 60, momentum: float = 0.9,
                          batch_size: int = 4) -> CosineHead:
    """Fit a cosine classifier on frozen features by mini-batch SGD."""
    head = CosineHead(glorot_layer(n_classes, feats.shape[1], SplitMix64(seed)).weights,
                      np.ones(n_classes))

    def loss_and_grad(idx):
        Z = feats[idx]
        loss, d_logits = cross_entropy_loss(cosine_head_forward(Z, head), y[idx])
        dU, dg, _ = cosine_head_backward(Z, head, d_logits)
        return loss, [dU, dg]

    config = TrainConfig(lr=lr, epochs=epochs, batch_size=batch_size, momentum=momentum,
                         seed=seed)
    sgd_fit([(head.directions, True), (head.gains, False)], loss_and_grad,
            feats.shape[0], config)
    return head


def snapshot_schedule(epochs: int, n_snapshots: int) -> list[int]:
    """Evenly spaced snapshot epochs ending at the final epoch."""
    snaps = sorted({max(1, round(epochs * (j + 1) / n_snapshots))
                    for j in range(n_snapshots)})
    return snaps


def run_fewshot(base: TransferTask, novel: Dataset, methods, spec: EpisodeSpec,
                cfg: FewshotConfig, n_episodes_eval: int = 600,
                run_id: str = "fewshot", n_episodes: int = 5) -> list[RunRecord]:
    """Evaluate representations on sampled episodes of novel classes.

    Every method within a seed group sees the same episode stream (paired
    comparison); reported std is the ddof=1 standard deviation over
    episode accuracies.
    """
    methods = list(methods)
    records: list[RunRecord] = []
    for s in cfg.seeds:
        feature_fns: dict[str, callable] = {}
        bank = None
        if {"erm", "cat", "distill"} & set(methods):
            ep_seeds = [derive_seed(s, i) for i in range(n_episodes)]
            bank = train_episodes(base.train, cfg.hidden, cfg.train, ep_seeds)
        if "erm" in methods:
            single = bank.member(0)
            feature_fns["erm"] = lambda X, b=single: cat_features(b, X)
        if "cat" in methods:
            feature_fns[f"cat{n_episodes}"] = lambda X, b=bank: cat_features(b, X)
        if "distill" in methods:
            student = distill(bank, cfg.distill, base.train,
                              cfg.distill_train.with_seed(derive_seed(s, 500)))
            feature_fns[f"distill{n_episodes}"] = (
                lambda X, t=student: extract_features(t, X))
        if {"cat-s", "snaps"} & set(methods):
            snaps = snapshot_schedule(cfg.train.epochs, cfg.n_snapshots)
            # the high-step-size episode runs plain SGD: momentum on top of
            # an 8x step would diverge rather than wander between minima
            snap_cfg = replace(cfg.train, lr=cfg.train.lr * cfg.snapshot_lr_mult,
                               momentum=0.0, seed=derive_seed(s, 42))
            snap_bank = snapshot_episode(base.train, cfg.hidden, snap_cfg, snaps)
            if "cat-s" in methods:
                feature_fns[f"cat{len(snaps)}-s"] = (
                    lambda X, b=snap_bank: cat_features(b, X))
            if "snaps" in methods:
                for j in range(len(snaps)):
                    member = snap_bank.member(j)
                    feature_fns[f"snap{j + 1}"] = (
                        lambda X, b=member: cat_features(b, X))

        ep_rng = SplitMix64(derive_seed(s, 900))
        episodes = [sample_episode(novel, spec, ep_rng) for _ in range(n_episodes_eval)]
        for method, feature_fn in feature_fns.items():
            accs = episode_accuracies(feature_fn, episodes, spec, cfg,
                                      seed=derive_seed(s, 7000))
            extra = {"episodes": str(n_episodes_eval), "classifier": cfg.classifier}
            records.append(RunRecord(run_id, s, method, base.name, "fewshot",
                                     "mean_accuracy", float(accs.mean()), extra))
            records.append(RunRecord(run_id, s, method, base.name, "fewshot",
                                     "std_accuracy", float(accs.std(ddof=1)), extra))
    return records


# episodes per stacked support solve: large enough that the numpy call
# overhead of a solver round is shared, small enough to bound its memory
EPISODE_BLOCK = 50


def episode_accuracies(feature_fn, episodes, spec: EpisodeSpec, cfg: FewshotConfig,
                       seed: int = 0) -> np.ndarray:
    """Per-episode query accuracies of support-fitted classifiers.

    The linear classifier fits the support probes of ``EPISODE_BLOCK``
    episodes at a time in one stacked ``fit_probe`` call, on features
    extracted once for the block's support rows; query features are
    extracted episode by episode.  Memory stays flat in the number of
    episodes, and each probe is the one it would be if fitted alone.
    """
    accs = np.empty(len(episodes))
    for e, (support, query) in enumerate(episodes):
        if cfg.classifier == "linear" and e % EPISODE_BLOCK == 0:
            block = episodes[e:e + EPISODE_BLOCK]
            fs = feature_fn(np.concatenate([s.X for s, _ in block]))
            probes = fit_probe(fs.reshape(len(block), -1, fs.shape[1]),
                               np.stack([s.y for s, _ in block]),
                               cfg.episode_probe, n_classes=spec.n_way)
        fq = feature_fn(query.X)
        if cfg.classifier == "linear":
            b = e % EPISODE_BLOCK
            pred = (fq @ probes.weights[b].T + probes.bias[b]).argmax(axis=1)
        else:
            head = fit_cosine_classifier(feature_fn(support.X), support.y, spec.n_way,
                                         seed=derive_seed(seed, e),
                                         lr=cfg.cosine_lr, epochs=cfg.cosine_epochs)
            pred = cosine_head_forward(fq, head).argmax(axis=1)
        accs[e] = float((pred == query.y).mean())
    return accs


# ---------------------------------------------------------------------------
# out-of-distribution pipeline

def vrex_objective(per_env_risks, beta: float) -> float:
    """Mean environment risk plus ``beta`` times their population variance."""
    risks = np.asarray(per_env_risks, dtype=np.float64)
    if risks.size < 1:
        raise ParameterError("need at least one environment risk")
    if beta < 0:
        raise ParameterError("beta must be nonnegative")
    return float(risks.mean() + beta * risks.var())


@dataclass
class OodConfig:
    algorithm: str = "erm"  # erm | vrex
    beta_grid: tuple[float, ...] = (0.5, 1.0, 5.0, 10.0, 50.0, 100.0)
    init: str = "scratch"   # scratch | cat | distill
    tune_mode: str = "iid"  # iid | ood
    lr_grid: tuple[float, ...] = (0.01, 0.1)
    wd_grid: tuple[float, ...] = (0.0, 1e-3)
    steps: int = 300
    momentum: float = 0.9
    hidden: tuple[int, ...] = (16,)
    holdout_frac: float = 0.2
    seeds: tuple[int, ...] = (101, 202, 303, 404, 505)

    def __post_init__(self):
        if self.algorithm not in ("erm", "vrex"):
            raise ParameterError(f"unknown algorithm {self.algorithm!r}")
        if self.init not in ("scratch", "cat", "distill"):
            raise ParameterError(f"unknown init {self.init!r}")
        if self.tune_mode not in ("iid", "ood"):
            raise ParameterError(f"unknown tune mode {self.tune_mode!r}")
        if self.algorithm == "vrex" and not self.beta_grid:
            raise ParameterError("vrex needs a nonempty beta grid")
        if not (0.0 < self.holdout_frac < 1.0):
            raise ParameterError("holdout_frac must lie in (0, 1)")


def _env_objective_fn(y, env_ids, beta):
    """Closure computing the environment-risk objective and its logit gradient."""
    y = np.asarray(y)
    envs, env_of = np.unique(env_ids, return_inverse=True)
    groups = [np.flatnonzero(env_of == j) for j in range(len(envs))]
    row_count = np.array([len(rows) for rows in groups], dtype=np.float64)[env_of][:, None]
    label_pos = {}  # n_classes -> (flat label positions, the same split by environment)

    def loss_fn(logits):
        n, k = logits.shape
        if k not in label_pos:
            flat = np.arange(n) * k + y
            label_pos[k] = flat, [flat[rows] for rows in groups]
        flat, env_pos = label_pos[k]
        logp = log_softmax(logits)
        lp = logp.reshape(-1)
        risks = np.empty(len(groups))
        for j, pos in enumerate(env_pos):
            risks[j] = -lp.take(pos).mean()
        mean_risk = risks.mean()
        # d objective / d risk_j = 1/E + beta * 2 (risk_j - mean) / E
        coeff = 1.0 / len(groups) + beta * 2.0 * (risks - mean_risk) / len(groups)
        # No gathers or scatters, yet the same bits as a per-environment
        # loop: each risk averages the same values in the same row order,
        # and each gradient entry gets the same two roundings as
        # ``coeff[j] * g / len(rows)`` (multiply, then divide by the count).
        d_logits = np.exp(logp)
        d_logits.reshape(-1)[flat] -= 1.0
        d_logits *= coeff[env_of][:, None]
        d_logits /= row_count
        return vrex_objective(risks, beta), d_logits

    return loss_fn


def _fit_ood_model(net0: Network, X, y, env_ids, beta, lr, wd, steps, momentum):
    """Full-batch descent on the environment-risk objective, rows in data order."""
    net = net0.clone()
    params = layer_params(net.layers)
    velocities = [np.zeros_like(w) for w, _ in params]
    loss_fn = _env_objective_fn(y, env_ids, beta)
    for step in range(steps):
        _, grads = network_loss_grad(net, X, loss_fn)
        try:
            sgd_step(params, grads, velocities, lr, momentum, wd)
        except NumericalError as exc:
            raise TrainingError(f"diverged at step {step}: {exc}", epoch=step) from exc
    return net


def select_hyperparams(records, tune_mode: str) -> str:
    """Config id with the best tune-split accuracy (ties: smallest beta, lr, wd).

    Selection only ever sees the tune split; test rows are filtered out
    structurally before the argmax.
    """
    split = "ood_tune" if tune_mode == "ood" else "id_test"
    candidates = [r for r in records
                  if r.split == split and r.metric == "accuracy"
                  and "config_id" in r.extra]
    if not candidates:
        raise DataError(f"no tune records with split {split!r}")

    def sort_key(r: RunRecord):
        return (
            -r.value,
            float(r.extra.get("beta", "0")),
            float(r.extra.get("lr", "0")),
            float(r.extra.get("wd", "0")),
        )

    return min(candidates, key=sort_key).extra["config_id"]


def run_ood(task: OodTask, config: OodConfig, init_bank: RepresentationBank | None = None,
            run_id: str = "ood", task_name: str = "ood") -> list[RunRecord]:
    """Environment-risk training with hyper-parameter selection.

    With ``init`` cat/distill the bank's representation is frozen and only
    a linear head trains; scratch trains a full network.  Candidates are
    scored on the tune environment (ood mode) or a held-out fraction of
    the pooled training rows (iid mode); the winner's test-environment
    accuracy is reported per seed plus a mean/std aggregate.
    """
    if config.init in ("cat", "distill") and init_bank is None:
        raise ParameterError(f"init={config.init!r} needs a representation bank")
    pooled = pool(task.train_envs)
    if config.init in ("cat", "distill"):
        def rep(X):
            return cat_features(init_bank, X)
    else:
        def rep(X):
            return np.asarray(X, dtype=np.float64)

    X_all = rep(pooled.X)
    X_tune_env = rep(task.tune_env.X)
    X_test = rep(task.test_env.X)
    k = pooled.n_classes

    betas = config.beta_grid if config.algorithm == "vrex" else (0.0,)
    method = {"scratch": "erm", "cat": f"cat{len(init_bank) if init_bank else 0}",
              "distill": "distill1"}[config.init]
    base_extra = {"algorithm": config.algorithm, "tune": config.tune_mode,
                  "init": config.init}

    records: list[RunRecord] = []
    test_accs = []
    for s in config.seeds:
        if config.tune_mode == "iid":
            perm = SplitMix64(derive_seed(s, 2)).permutation(pooled.n)
            n_hold = max(1, int(round(config.holdout_frac * pooled.n)))
            hold, keep = perm[:n_hold], perm[n_hold:]
        else:
            hold = None
            keep = np.arange(pooled.n)
        X_fit, y_fit, env_fit = X_all[keep], pooled.y[keep], pooled.env[keep]

        if config.init == "scratch":
            net0 = init_network([pooled.d, *config.hidden, k], seed=derive_seed(s, 1))
        else:
            net0 = Network([glorot_layer(k, X_all.shape[1],
                                         SplitMix64(derive_seed(s, 1)))])

        seed_records: list[RunRecord] = []
        models: dict[str, Network] = {}
        for beta in betas:
            for lr in config.lr_grid:
                for wd in config.wd_grid:
                    cid = f"b{beta:g}-lr{lr:g}-wd{wd:g}"
                    try:
                        net = _fit_ood_model(net0, X_fit, y_fit, env_fit, beta, lr, wd,
                                             config.steps, config.momentum)
                    except TrainingError as exc:
                        raise EpisodeError(f"ood candidate {cid} at seed {s} {exc}",
                                           seed=s, epoch=exc.epoch) from exc
                    models[cid] = net
                    if config.tune_mode == "ood":
                        tune_acc = accuracy(net, X_tune_env, task.tune_env.y)
                        split = "ood_tune"
                    else:
                        tune_acc = accuracy(net, X_all[hold], pooled.y[hold])
                        split = "id_test"
                    seed_records.append(RunRecord(
                        run_id, s, method, task_name, split, "accuracy", tune_acc,
                        {**base_extra, "config_id": cid, "beta": f"{beta:g}",
                         "lr": f"{lr:g}", "wd": f"{wd:g}"},
                    ))
        chosen = select_hyperparams(seed_records, config.tune_mode)
        test_acc = accuracy(models[chosen], X_test, task.test_env.y)
        test_accs.append(test_acc)
        records.extend(seed_records)
        records.append(RunRecord(run_id, s, method, task_name, "ood_test",
                                 "accuracy", test_acc,
                                 {**base_extra, "chosen": chosen}))
    accs = np.asarray(test_accs)
    records.append(RunRecord(run_id, 0, method, task_name, "ood_test",
                             "accuracy_mean", float(accs.mean()), base_extra))
    records.append(RunRecord(run_id, 0, method, task_name, "ood_test",
                             "accuracy_std",
                             float(accs.std(ddof=1)) if len(accs) > 1 else 0.0,
                             base_extra))
    return records
