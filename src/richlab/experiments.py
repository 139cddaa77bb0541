"""End-to-end pipelines: transfer (probe + fine-tune), few-shot
evaluation, out-of-distribution training with environment-risk
objectives and tuned model selection, plus CSV record emission.

A method is defined in one place, its row of :data:`METHODS`: its
method column, the pipelines that take it, the config fields it reads,
the bank it starts from, its seed, and its builder or, for a fine-tune,
its scorer.  Every pipeline gets its representations from
:func:`build_representations`, which reads that table.

Every pipeline is deterministic given its seeds: representation
training, classifier fitting, episode sampling, and hyper-parameter
selection all draw from derived SplitMix64 streams, and a rerun of the
same configuration reproduces its CSV byte for byte.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

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
from .errors import (DataError, NumericalError, ParameterError, TrainingError, check_bounds,
                     check_choice, check_items, named)
from .probing import ProbeCache, ProbeConfig, fit_probe
from .rng import SplitMix64, derive_seed
from .richrep import (
    DistillSpec,
    RepresentationBank,
    bank_head_accuracy,
    cat_features,
    distill,
    joint_train,
    leg_logits,
    leg_probe_gap,
    naive_finetune,
    stack_nets,
    subset_ensemble_predict,
    train_episodes,
    snapshot_episode,
    two_stage_finetune,
)
from .tasks import (
    Dataset,
    EpisodeSpec,
    ShiftSpec,
    draw_env,
    gen_shift,
    pool,
    sample_episode,
    split_classes,
)

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
    return dict(part.partition("=")[::2] for part in text.split("|")) if text else {}


def _csv_line(r: RunRecord, seen: set) -> str:
    """``r`` as a line of the results CSV.  A text field or extra that would not read
    back, or a record whose key (all but its value) is in ``seen``, is a DataError;
    the key joins ``seen``."""
    for name in ("run_id", "method", "task", "split", "metric"):
        text = str(getattr(r, name))
        if _TEXT_FORBIDDEN & set(text):
            raise DataError(f"{name} {text!r} contains a comma or a line break")
    extra = format_extra(r.extra)
    key = (r.run_id, r.seed, r.method, r.task, r.split, r.metric, extra)
    if key in seen:
        raise DataError(f"duplicate record {key}")
    seen.add(key)
    return f"{r.run_id},{r.seed},{r.method},{r.task},{r.split},{r.metric},{r.value:.6g},{extra}"


def records_to_csv_text(records) -> str:
    seen = set()
    return "\n".join([CSV_HEADER, *(_csv_line(r, seen) for r in records)]) + "\n"


def write_records_csv(records, path) -> None:
    Path(path).write_bytes(records_to_csv_text(records).encode("utf-8"))


def load_records_csv(path) -> list[RunRecord]:
    """The records of a results CSV.  Each line must be the line the writer
    writes for its record, so any file that loads writes back byte for byte."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: byte {exc.start}: not UTF-8: {exc.reason}") from exc
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise DataError(f"{path}: CSV header mismatch: expected {CSV_HEADER!r}")
    records, seen = [], set()
    for number, line in enumerate(lines[1:], start=2):
        try:
            run_id, seed, method, task, split, metric, value, extra = line.split(",")
            records.append(RunRecord(run_id, int(seed), method, task, split, metric,
                                     float(value), parse_extra(extra)))
            written = _csv_line(records[-1], seen)
            if written != line:
                raise DataError(f"the writer writes this record as {written!r}")
        except ValueError as exc:  # field count, number syntax, record checks, other bytes
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


@dataclass
class OodTask:
    """Data bundle for the OOD pipeline: training environments, the
    environment that tunes hyper-parameters in ood mode, and the test one."""

    train_envs: list[Dataset]
    tune_env: Dataset
    test_env: Dataset


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


def ood_sample(spec: ShiftSpec, seed: int, rows: int) -> Dataset:
    """``rows`` rows of one environment at the OOD correlation.

    The same bytes as the first training environment of the shift task
    whose one training correlation is the OOD one, drawn alone.
    """
    if rows < 1:
        raise ParameterError(f"an OOD sample needs at least one row, got {rows}")
    return draw_env(spec, spec.ood_correlation, rows, SplitMix64(seed))


def make_shift_task(spec: ShiftSpec, seed: int, ood_train_rows: int = 600,
                    ood_test_rows: int = 1500) -> TransferTask:
    """Shift task with enlarged shifted splits (keeps evaluation noise small
    relative to the few-point effects being measured)."""
    train_envs, id_test, _ = gen_shift(spec, seed)
    ood_train = ood_sample(spec, derive_seed(seed, 7), ood_train_rows)
    ood_test = ood_sample(spec, derive_seed(seed, 8), ood_test_rows)
    return TransferTask("shift", pool(train_envs), id_test, ood_test, ood_train)


def make_class_split_tasks(task: TransferTask) -> tuple[TransferTask, TransferTask]:
    """``task`` with every split it has cut into its base classes (the first
    half) and its novel classes (the rest)."""
    parts = [(None, None) if ds is None else split_classes(ds)
             for ds in (task.train, task.id_test, task.ood_test, task.ood_train)]
    return (TransferTask("base", *(base for base, _ in parts)),
            TransferTask("novel", *(novel for _, novel in parts)))


def make_ft_target(spec: ShiftSpec, seed: int, n_rows: int) -> TransferTask:
    """Small fine-tuning target drawn at the OOD correlation.

    Fine-tuning data is scarce and shifted; evaluation uses a large fresh
    sample from the same shifted distribution.
    """
    eval_spec = replace(spec, env_correlations=(spec.ood_correlation,))
    return TransferTask("shift-target", ood_sample(spec, seed, n_rows), None,
                        gen_shift(eval_spec, derive_seed(seed, 1))[2])


# ---------------------------------------------------------------------------
# the method table
_SNAPSHOT_KEY = 42  # the snapshot run's seed key, which a bank's episode 42 takes too

def _episode_bank(data: Dataset, cfg, seed: int, episode_offset: int) -> RepresentationBank:
    """Episode ``i`` trains from ``derive_seed(seed, episode_offset + i)``."""
    return train_episodes(data, cfg.hidden, cfg.train,
                          [derive_seed(seed, episode_offset + i) for i in range(cfg.n_episodes)])


def _snapshot_bank(data: Dataset, cfg, seed: int, episode_offset: int) -> RepresentationBank:
    """Snapshots of one run that trains from ``derive_seed(seed, _SNAPSHOT_KEY)``."""
    # plain SGD: momentum on top of an 8x step would diverge rather than wander between minima
    config = replace(cfg.train, lr=cfg.train.lr * cfg.snapshot_lr_mult, momentum=0.0,
                     seed=derive_seed(seed, _SNAPSHOT_KEY))
    return snapshot_episode(data, cfg.hidden, config,
                            snapshot_schedule(cfg.train.epochs, cfg.n_snapshots))


def _distilled(bank: RepresentationBank, data: Dataset, cfg, seed: int):
    student = distill(bank, cfg.distill, data, cfg.distill_train.with_seed(seed))
    return [RepresentationBank(stack_nets([student]))]


def _joint(_, data: Dataset, cfg, seed: int):
    return [joint_train(data, cfg.hidden, cfg.n_episodes, cfg.train.with_seed(seed))[0]]


def _test_splits(target: TransferTask):
    """``(split, fit rows, test rows)`` for each test split of ``target``: the
    shifted test's probe fits on ``ood_train`` when there is one, and every
    other probe on ``train``."""
    ood_fit = target.train if target.ood_train is None else target.ood_train
    splits = (("id_test", target.train, target.id_test), ("ood_test", ood_fit, target.ood_test))
    return [(split, fit, ds) for split, fit, ds in splits if ds is not None]


def _subset_ensemble(bank: RepresentationBank, target: TransferTask, cfg, seed, cache):
    rows = []
    for split, fit, ds in _test_splits(target):
        probes = cache.fit(extract_features(bank.trunk, fit.X), fit.y, fit.n_classes)
        proba = subset_ensemble_predict(bank, probes, ds.X)
        rows.append(("catsub", split, "probe_accuracy",
                     float((proba.argmax(axis=1) == ds.y).mean())))
    return rows


def _naive_ft(bank: RepresentationBank, target: TransferTask, cfg, seed: int, cache):
    ft_bank, head = naive_finetune(bank, target.train, cfg.ft.with_seed(seed))
    return [("init-ft", split, "accuracy", bank_head_accuracy(ft_bank, head, ds.X, ds.y))
            for split, _, ds in _test_splits(target)]


def _two_stage_ft(bank: RepresentationBank, target: TransferTask, cfg, seed: int, cache):
    ft_bank, head = two_stage_finetune(bank, target.train, cfg.ft.with_seed(seed),
                                       cfg.stage2_epochs, cfg.stage2_lr)
    rows = []
    for split, _, ds in _test_splits(target):
        hits = leg_logits(ft_bank, ds.X).argmax(axis=-1) == ds.y
        rows += [("2ft", split, "accuracy", bank_head_accuracy(ft_bank, head, ds.X, ds.y)),
                 ("ft-best-leg", split, "accuracy", float(hits.mean(axis=-1).max()))]
    return rows


class Method(NamedTuple):
    """One row of :data:`METHODS`.

    ``build(bank, data, cfg, seed)`` trains the method's representations,
    one bank per method column.  A fine-tune has ``score(bank, target, cfg,
    seed, cache)`` instead, which returns ``(column, split, metric, value)``
    rows.  Either takes the bank that ``start`` builds, once per run seed,
    and the method's own seed, ``derive_seed(run seed, seed)``.
    """

    column: str                     # n: n_episodes, k: the bank's members, j: a member's number
    pipelines: tuple[str, ...]
    reads: tuple[str, ...]          # the config fields it reads
    start: Callable | None          # (data, cfg, seed, episode_offset) -> the bank it starts from
    seed: int | None = None
    build: Callable | None = None
    score: Callable | None = None
    leg_gap: bool = False           # transfer records the spread of its legs' probes


_EPISODES = ("hidden", "n_episodes", "train")
_SNAPSHOTS = ("hidden", "train", "n_snapshots", "snapshot_lr_mult")

# every method, in build order
METHODS = {
    "erm": Method("erm", ("transfer", "fewshot"), _EPISODES, _episode_bank,
                  build=lambda bank, *_: [bank.member(0)]),
    "cat": Method("cat{n}", ("transfer", "fewshot", "ood"), _EPISODES, _episode_bank,
                  build=lambda bank, *_: [bank], leg_gap=True),
    "distill": Method("distill{n}", ("transfer", "fewshot", "ood"),
                      (*_EPISODES, "distill", "distill_train"), _episode_bank, 500,
                      build=_distilled),
    "joint": Method("joint{n}", ("transfer",), _EPISODES, None, 600, build=_joint,
                    leg_gap=True),
    "cat-s": Method("cat{k}-s", ("fewshot",), _SNAPSHOTS, _snapshot_bank,
                    build=lambda bank, *_: [bank]),
    "snaps": Method("snap{j}", ("fewshot",), _SNAPSHOTS, _snapshot_bank,
                    build=lambda bank, *_: [bank.member(j) for j in range(len(bank))]),
    "catsub": Method("catsub", ("transfer",), _EPISODES, _episode_bank, score=_subset_ensemble),
    "init-ft": Method("init-ft", ("transfer",), (*_EPISODES, "ft"), _episode_bank, 700,
                      score=_naive_ft),
    # 2ft also writes the accuracy of its best fine-tuned leg as ft-best-leg
    "2ft": Method("2ft", ("transfer",), (*_EPISODES, "ft", "stage2_epochs", "stage2_lr"),
                  _episode_bank, 800, score=_two_stage_ft),
}


def methods_of(pipeline: str) -> tuple[str, ...]:
    """The methods ``pipeline`` takes, in build order."""
    return tuple(name for name, m in METHODS.items() if pipeline in m.pipelines)


def _check_bank(pipeline: str, cfg, allowed) -> None:
    """Refuse no, unknown or repeated methods, an empty trunk or one 0 or over 10**4 wide,
    0 or over 50 episodes."""
    check_items("methods", cfg.methods)
    unknown = [m for m in cfg.methods if m not in allowed]
    if unknown:
        raise ParameterError(f"unknown {pipeline} method(s) {', '.join(map(repr, unknown))}; "
                             f"choose from {', '.join(allowed)}", "methods")
    repeated = sorted({m for m in cfg.methods if cfg.methods.count(m) > 1})
    if repeated:
        raise ParameterError(f"{pipeline} method(s) {', '.join(map(repr, repeated))} "
                             "named more than once", "methods")
    check_bounds("n_episodes", cfg.n_episodes, ge=1, le=50)
    check_items("hidden", cfg.hidden, ge=1, le=10**4)


def _start(m: Method, banks: dict, data: Dataset, cfg, seed: int, episode_offset: int = 0):
    """The bank ``m`` starts from, built into ``banks`` on first use, and its own seed."""
    if m.start is not None and m.start not in banks:
        banks[m.start] = m.start(data, cfg, seed, episode_offset)
    return banks.get(m.start), None if m.seed is None else derive_seed(seed, m.seed)


class Representation(NamedTuple):
    method: str                # the config's method name
    name: str                  # the method column of its records
    bank: RepresentationBank


def build_representations(methods, data: Dataset, cfg, seed: int, episode_offset: int = 0,
                          banks: dict | None = None) -> list[Representation]:
    """Train on ``data`` the representations of the methods in ``methods``
    that :data:`METHODS` gives a builder, in table order, one per method
    column.  Each bank a method starts from is built once, into ``banks``
    if given, and a failure while building it names the first method that
    needs it.
    """
    banks = {} if banks is None else banks
    reps = []
    for name, m in METHODS.items():
        if m.build is not None and name in methods:
            with named(f"{name} with seed {seed}: ", seed=seed):
                bank, own_seed = _start(m, banks, data, cfg, seed, episode_offset)
                built = m.build(bank, data, cfg, own_seed)
            reps += [Representation(name, m.column.format(n=cfg.n_episodes, k=len(b), j=j + 1), b)
                     for j, b in enumerate(built)]
    return reps


def snapshot_schedule(epochs: int, n_snapshots: int) -> list[int]:
    """Evenly spaced snapshot epochs ending at the final epoch."""
    return sorted({max(1, round(epochs * (j + 1) / n_snapshots))
                   for j in range(n_snapshots)})


# ---------------------------------------------------------------------------
# transfer pipeline

@dataclass
class TransferConfig:
    hidden: tuple[int, ...] = (16,)
    n_episodes: int = 5
    train: TrainConfig = field(default_factory=lambda: TrainConfig(
        lr=0.1, epochs=100, batch_size=32, momentum=0.9,
        schedule=Schedule("cosine")))
    probe: ProbeConfig = field(default_factory=lambda: ProbeConfig(
        l2=1e-3, max_iters=800, grad_tol=1e-7, standardize=True))
    distill: DistillSpec = field(default_factory=lambda: DistillSpec(
        mode="kl", tau=10.0, alpha=0.9, student_arch=(16,)))
    distill_train: TrainConfig = field(default_factory=lambda: TrainConfig(
        lr=0.01, epochs=200, batch_size=32, momentum=0.9,
        schedule=Schedule("cosine")))
    ft: TrainConfig = field(default_factory=lambda: TrainConfig(
        lr=0.02, epochs=30, batch_size=16, momentum=0.9))
    stage2_epochs: int = 1
    stage2_lr: float = 1e-3
    seeds: tuple[int, ...] = (101, 202, 303, 404, 505)
    methods: tuple[str, ...] = ("erm", "cat", "distill", "joint", "catsub")
    # the task the probes and fine-tunes are scored on: the pretraining task
    # (same), its novel classes (novel), or a target_rows-row fine-tuning
    # sample at the OOD correlation (ood_sample)
    target: str = "same"
    target_rows: int = 120

    def __post_init__(self):
        _check_bank("transfer", self, methods_of("transfer"))
        check_bounds("stage2_epochs", self.stage2_epochs, ge=0, le=10**4)
        check_bounds("stage2_lr", self.stage2_lr, gt=0)
        check_bounds("target_rows", self.target_rows, ge=10, le=10**6)


def _probe_records(records, run_id, seed, method, task: TransferTask,
                   feature_fn, cache: ProbeCache):
    probe = cache.fit(feature_fn(task.train.X), task.train.y, task.train.n_classes)
    records.append(RunRecord(run_id, seed, method, task.name, "id_train",
                             "probe_cost", probe.cost))
    records.append(RunRecord(run_id, seed, method, task.name, "id_train",
                             "probe_accuracy", probe.train_accuracy))
    for split, fit, ds in _test_splits(task):
        reuse = fit is task.train
        fitted = probe if reuse else cache.fit(feature_fn(fit.X), fit.y, fit.n_classes)
        extra = {} if split == "id_test" else {"probe": "reuse" if reuse else "refit"}
        acc = float((fitted.predict(feature_fn(ds.X)) == ds.y).mean())
        records.append(RunRecord(run_id, seed, method, task.name, split,
                                 "probe_accuracy", acc, extra))


def run_transfer(pretrain: TransferTask, target: TransferTask, cfg: TransferConfig,
                 run_id: str = "transfer") -> list[RunRecord]:
    """Train single/concatenated/distilled/joint representations on the
    pretraining task and score probes and fine-tunes on the target task."""
    records: list[RunRecord] = []
    for s in cfg.seeds:
        # the same problem recurs within a seed: erm is leg 0 of cat, and
        # catsub refits the legs that the leg gap already probed
        cache = ProbeCache(cfg.probe)
        banks = {}
        for rep in build_representations(cfg.methods, pretrain.train, cfg, s, banks=banks):
            _probe_records(records, run_id, s, rep.name, target,
                           lambda X, b=rep.bank: cat_features(b, X), cache)
            if METHODS[rep.method].leg_gap:
                accs, gap = leg_probe_gap(rep.bank, pretrain.train, cache)
                records.append(RunRecord(run_id, s, rep.name, pretrain.name,
                                         "id_train", "leg_gap", gap,
                                         {"legs": "/".join(f"{a:.4f}" for a in accs)}))
        for name, m in METHODS.items():
            if m.score is not None and name in cfg.methods:
                with named(f"{name} with seed {s}: ", seed=s):
                    bank, own_seed = _start(m, banks, pretrain.train, cfg, s)
                    rows = m.score(bank, target, cfg, own_seed, cache)
                records += [RunRecord(run_id, s, column, target.name, split, metric, value)
                            for column, split, metric, value in rows]
    return records


# ---------------------------------------------------------------------------
# few-shot pipeline

@dataclass
class FewshotConfig:
    hidden: tuple[int, ...] = (16,)
    n_episodes: int = 5
    methods: tuple[str, ...] = ("erm", "cat", "cat-s", "snaps")
    n_episodes_eval: int = 600
    train: TrainConfig = field(default_factory=lambda: TrainConfig(
        lr=0.05, epochs=40, batch_size=32, momentum=0.9))
    classifier: str = "linear"  # linear | cosine
    probe: ProbeConfig = field(default_factory=lambda: ProbeConfig(
        l2=1e-3, max_iters=300, grad_tol=1e-6))
    n_snapshots: int = 5
    snapshot_lr_mult: float = 8.0
    distill: DistillSpec = field(default_factory=lambda: DistillSpec(
        mode="ce_kl", tau=10.0, alpha=0.9, student_arch=(16,)))
    distill_train: TrainConfig = field(default_factory=lambda: TrainConfig(
        lr=0.05, epochs=60, batch_size=32, momentum=0.9))
    seeds: tuple[int, ...] = (101, 202, 303, 404, 505)

    def __post_init__(self):
        _check_bank("few-shot", self, methods_of("fewshot"))
        check_choice("classifier", self.classifier, ("linear", "cosine"))
        # the reported std is the ddof=1 std over the evaluation episodes
        check_bounds("n_episodes_eval", self.n_episodes_eval, ge=2, le=10**5)
        check_bounds("n_snapshots", self.n_snapshots, ge=1)
        check_bounds("snapshot_lr_mult", self.snapshot_lr_mult, gt=0)
        snapshots = [name for name, m in METHODS.items() if m.start is _snapshot_bank]
        if not set(snapshots) & set(self.methods):
            return
        need, epochs = f"snapshot methods ({', '.join(snapshots)}) need", self.train.epochs
        if epochs < 1:
            raise ParameterError(f"{need} train.epochs of at least 1, got {epochs}",
                                 ("train", "epochs"))
        # one snapshot per distinct epoch: more would silently give fewer
        if self.n_snapshots > epochs:
            raise ParameterError(f"{need} n_snapshots of at most train.epochs, got n_snapshots "
                                 f"{self.n_snapshots} and train.epochs {epochs}", "n_snapshots")
        banks = [m for m in self.methods if METHODS[m].start is _episode_bank]
        if banks and self.n_episodes > _SNAPSHOT_KEY:  # a later episode shares the run's seed
            raise ParameterError(f"{need} n_episodes of at most {_SNAPSHOT_KEY} beside "
                                 f"{', '.join(banks)}, got {self.n_episodes}", "n_episodes")


def fit_cosine_classifier(feats, y, n_classes: int, seed: int, lr: float = 0.1,
                          epochs: int = 60, momentum: float = 0.9,
                          batch_size: int = 4) -> CosineHead:
    """Fit a cosine classifier on frozen features by mini-batch SGD."""
    head = CosineHead(glorot_layer(n_classes, feats.shape[1], SplitMix64(seed)).weights,
                      np.ones(n_classes))

    def loss_and_grad(idx):
        Z = feats[idx]
        loss, d_logits = cross_entropy_loss(cosine_head_forward(Z, head), y[idx])
        return loss, list(cosine_head_backward(Z, head, d_logits))

    config = TrainConfig(lr=lr, epochs=epochs, batch_size=batch_size, momentum=momentum,
                         seed=seed)
    sgd_fit([(head.directions, True), (head.gains, False)], loss_and_grad,
            feats.shape[0], config)
    return head


def run_fewshot(base: TransferTask, novel: Dataset, spec: EpisodeSpec, cfg: FewshotConfig,
                run_id: str = "fewshot") -> list[RunRecord]:
    """Evaluate representations on sampled episodes of novel classes.

    Every method of a seed group sees the same episodes (a paired
    comparison); std is the ddof=1 standard deviation over episodes.  The
    linear classifier evaluates a seed's representations of one feature
    width in one :func:`episode_accuracies` call, so their support
    problems share stacked solves; the cosine classifier evaluates each
    representation alone.
    """
    records: list[RunRecord] = []
    extra = {"episodes": str(cfg.n_episodes_eval), "classifier": cfg.classifier}
    for s in cfg.seeds:
        reps = build_representations(cfg.methods, base.train, cfg, s)
        rng = SplitMix64(derive_seed(s, 900))
        episodes = np.stack([sample_episode(novel, spec, rng) for _ in range(cfg.n_episodes_eval)])
        widths = [rep.bank.total_dim for rep in reps]
        # positions in reps, by width for the linear classifier, one each for the cosine
        groups: dict[int, list[int]] = {}
        for i, width in enumerate(widths):
            groups.setdefault(width if cfg.classifier == "linear" else i, []).append(i)
        accs = {}
        for group in groups.values():
            with named(f"{', '.join(reps[i].name for i in group)} with seed {s}: ", seed=s):
                accs.update(zip(group, episode_accuracies(
                    [lambda rows, b=reps[i].bank: cat_features(b, novel.X[rows]) for i in group],
                    episodes, spec, cfg, derive_seed(s, 7000), widest=max(widths))))
        for i, rep in enumerate(reps):
            acc = accs[i]
            records.append(RunRecord(run_id, s, rep.name, base.name, "fewshot",
                                     "mean_accuracy", float(acc.mean()), extra))
            records.append(RunRecord(run_id, s, rep.name, base.name, "fewshot",
                                     "std_accuracy", float(acc.std(ddof=1)), extra))
    return records


# episodes per stacked support solve of the widest features: large enough
# that the numpy call overhead of a solver round is shared, small enough to
# bound its memory
EPISODE_BLOCK = 50


def episode_accuracies(feature_fns, episodes, spec: EpisodeSpec, cfg: FewshotConfig,
                       seed: int = 0, widest: int = 0) -> np.ndarray:
    """Per-episode query accuracies of support-fitted classifiers, an (R, E)
    array with one row per feature function.

    ``episodes`` is an (E, n_way, k_shot + n_query) stack of
    ``sample_episode`` row positions; each of the ``R`` functions of
    ``feature_fns`` maps positions to features, all of one width ``d``.
    The linear classifier fits the support probes of a block of
    ``EPISODE_BLOCK`` episodes of every function in stacked ``fit_probe``
    calls, each probe the probe it would be alone.  A solve holds at most
    ``EPISODE_BLOCK`` episodes' support features ``max(widest, d)`` wide,
    so a block's functions share as few solves as that bound allows.  A
    cosine fit or prediction that meets a zero-norm feature row raises an
    :class:`EpisodeError` naming the episode.
    """
    k = spec.k_shot
    sup_y = np.repeat(np.arange(spec.n_way), k)
    qry_y = np.repeat(np.arange(spec.n_way), spec.n_query)
    accs = np.empty((len(feature_fns), len(episodes)))
    if cfg.classifier == "cosine":
        for r, feature_fn in enumerate(feature_fns):
            for e, rows in enumerate(episodes):
                fq = feature_fn(rows[:, k:].reshape(-1))
                with named(f"cosine classifier of episode {e} failed: "):
                    head = fit_cosine_classifier(feature_fn(rows[:, :k].reshape(-1)), sup_y,
                                                 spec.n_way, seed=derive_seed(seed, e))
                    pred = cosine_head_forward(fq, head).argmax(axis=1)
                accs[r, e] = (pred == qry_y).mean()
        return accs
    for start in range(0, len(episodes), EPISODE_BLOCK):
        block = episodes[start:start + EPISODE_BLOCK]
        support = block[:, :, :k].reshape(-1)
        for r, feature_fn in enumerate(feature_fns):
            fs = feature_fn(support)
            fs = fs.reshape(len(block), -1, fs.shape[1])
            if r == 0:
                width = fs.shape[2]
                per_solve = max(1, EPISODE_BLOCK * max(widest, width) // (len(block) * width))
            # function r is member j of the solve of the n functions from `first` on
            j = r % per_solve
            if j == 0:
                first, n = r, min(per_solve, len(feature_fns) - r)
                # a lone function's features are solved in place, uncopied
                stack = fs if n == 1 else np.empty((n, *fs.shape))
            if n > 1:
                stack[j] = fs
            del fs
            if j < n - 1:
                continue
            probes = fit_probe(stack.reshape(-1, *stack.shape[-2:]), sup_y, cfg.probe,
                               n_classes=spec.n_way)
            del stack
            for m, fn in enumerate(feature_fns[first:first + n]):
                for i, rows in enumerate(block):
                    pred = probes[m * len(block) + i].predict(fn(rows[:, k:].reshape(-1)))
                    accs[first + m, start + i] = (pred == qry_y).mean()
    return accs


# ---------------------------------------------------------------------------
# out-of-distribution pipeline

@dataclass
class OodConfig:
    algorithm: str = "erm"  # erm | vrex
    init: str = "scratch"   # scratch | cat | distill
    tune_mode: str = "iid"  # iid | ood
    beta_grid: tuple[float, ...] = (0.5, 1.0, 5.0, 10.0, 50.0, 100.0)
    lr_grid: tuple[float, ...] = (0.01, 0.1)
    wd_grid: tuple[float, ...] = (0.0, 1e-3)
    steps: int = 300
    hidden: tuple[int, ...] = (16,)
    holdout_frac: float = 0.2
    seeds: tuple[int, ...] = (101, 202, 303, 404, 505)

    def __post_init__(self):
        check_choice("algorithm", self.algorithm, ("erm", "vrex"))
        check_choice("init", self.init, ("scratch", *methods_of("ood")))
        check_choice("tune_mode", self.tune_mode, ("iid", "ood"))
        # the grids the candidates are drawn from, and their bounds: erm trains at beta 0 alone
        grids = {"beta_grid": {"gt": 0}} if self.algorithm == "vrex" else {}
        for name, bounds in {**grids, "lr_grid": {"gt": 0}, "wd_grid": {"ge": 0}}.items():
            grid = getattr(self, name)
            check_items(name, grid, **bounds)
            # config ids print values with :g: two alike would name two candidates the same
            ids = [f"{v:g}" for v in grid]
            for i, v in enumerate(grid):
                if ids[i] in ids[:i]:
                    raise ParameterError(f"{name} value {v!r} prints as {ids[i]!r} in "
                                         "config ids, as an earlier value does", (name, i))
        check_bounds("steps", self.steps, ge=1, le=10**5)
        check_items("hidden", self.hidden, ge=1, le=10**4)
        check_bounds("holdout_frac", self.holdout_frac, gt=0, lt=1)

    def n_hold(self, n_rows: int) -> int:
        """Rows that iid tuning holds out of ``n_rows`` pooled training rows."""
        return max(1, int(round(self.holdout_frac * n_rows)))


def _env_objective_fn(y, env_ids, beta, n_classes: int):
    """Closure computing the environment-risk objective and its gradient over ``n_classes`` logits.

    The objective is ``risks.mean() + beta * risks.var()`` bit for bit: the
    sums and divisions below are the ones ``ndarray.mean`` and
    ``ndarray.var`` perform, without their per-call wrapping and checks.
    """
    if beta < 0:
        raise ParameterError("beta must be nonnegative")
    y = np.asarray(y)
    envs, env_of = np.unique(env_ids, return_inverse=True)
    groups = [np.flatnonzero(env_of == j) for j in range(len(envs))]
    n_env = len(groups)
    row_count = np.array([len(rows) for rows in groups], dtype=np.float64)[env_of][:, None]
    # the flat position of each row's label logit, and the same split by environment
    flat = np.arange(len(y)) * n_classes + y
    env_pos = [flat[rows] for rows in groups]

    def loss_fn(logits):
        logp = log_softmax(logits)
        lp = logp.reshape(-1)
        risks = np.empty(n_env)
        for j, pos in enumerate(env_pos):
            risks[j] = -(np.add.reduce(lp.take(pos)) / len(pos))
        mean_risk = np.add.reduce(risks) / n_env
        dev = risks - mean_risk
        # d objective / d risk_j = 1/E + beta * 2 (risk_j - mean) / E
        coeff = 1.0 / n_env + beta * 2.0 * dev / n_env
        # No gathers or scatters, yet the same bits as a per-environment
        # loop: each risk averages the same values in the same row order,
        # and each gradient entry gets the same two roundings as
        # ``coeff[j] * g / len(rows)`` (multiply, then divide by the count).
        d_logits = np.exp(logp)
        d_logits.reshape(-1)[flat] -= 1.0
        d_logits *= coeff[env_of][:, None]
        d_logits /= row_count
        return float(mean_risk + beta * (np.add.reduce(dev * dev) / n_env)), d_logits

    return loss_fn


# the momentum of every OOD candidate fit
OOD_MOMENTUM = 0.9


def _fit_ood_model(net0: Network, X, y, env_ids, beta, lr, wd, steps):
    """Full-batch descent on the environment-risk objective, rows in data order."""
    net = net0.clone()
    params = layer_params(net.layers)
    velocities = [np.zeros_like(w) for w, _ in params]
    loss_fn = _env_objective_fn(y, env_ids, beta, net.n_out)
    for step in range(steps):
        _, grads = network_loss_grad(net, X, loss_fn)
        try:
            sgd_step(params, grads, velocities, lr, OOD_MOMENTUM, wd)
        except NumericalError as exc:
            raise TrainingError(f"diverged at step {step}: {exc}", epoch=step) from exc
    return net


def run_ood(task: OodTask, config: OodConfig, rep: Representation | None = None,
            run_id: str = "ood", task_name: str = "ood") -> list[RunRecord]:
    """Environment-risk training with hyper-parameter selection.

    With ``init`` cat or distill, ``rep`` is the representation that
    :func:`build_representations` built for it: it is frozen, only a linear
    head trains, and its name is the method column.  ``scratch`` takes no
    representation, trains a full network and is named erm.  Candidates are
    scored on the tune environment (ood mode) or a held-out fraction of
    the pooled training rows (iid mode).  Per seed the best tune accuracy
    wins, ties going to the smallest beta, then lr, then wd, and only the
    winner meets the test environment: its accuracy is reported per seed
    plus a mean/std aggregate.
    """
    given = "scratch" if rep is None else rep.method
    if given != config.init:
        raise ParameterError(f"init={config.init!r} needs its own representation, "
                             f"got {given!r}")
    pooled = pool(task.train_envs)
    # a training row's environment is its dataset's position in train_envs
    env_all = np.repeat(np.arange(len(task.train_envs)), [ds.n for ds in task.train_envs])
    X_all, X_tune_env, X_test = pooled.X, task.tune_env.X, task.test_env.X
    if rep is not None:
        X_all, X_tune_env, X_test = [cat_features(rep.bank, X)
                                     for X in (X_all, X_tune_env, X_test)]
    k = pooled.n_classes

    betas = config.beta_grid if config.algorithm == "vrex" else (0.0,)
    method = "erm" if rep is None else rep.name
    base_extra = {"algorithm": config.algorithm, "tune": config.tune_mode,
                  "init": config.init}
    split = "ood_tune" if config.tune_mode == "ood" else "id_test"

    records: list[RunRecord] = []
    test_accs = []
    for s in config.seeds:
        X_fit, y_fit, env_fit = X_all, pooled.y, env_all
        X_tune, y_tune = X_tune_env, task.tune_env.y
        if config.tune_mode == "iid":
            perm = SplitMix64(derive_seed(s, 2)).permutation(pooled.n)
            hold, keep = np.split(perm, [config.n_hold(pooled.n)])
            X_fit, y_fit, env_fit = X_all[keep], pooled.y[keep], env_all[keep]
            X_tune, y_tune = X_all[hold], pooled.y[hold]

        net0 = init_network([X_all.shape[1], *(config.hidden if rep is None else ()), k],
                            seed=derive_seed(s, 1))

        best = None  # (key, config id, network) of the best candidate so far
        for beta, lr, wd in itertools.product(betas, config.lr_grid, config.wd_grid):
            cid = f"b{beta:g}-lr{lr:g}-wd{wd:g}"
            with named(f"ood candidate {cid} at seed {s} ", seed=s):
                net = _fit_ood_model(net0, X_fit, y_fit, env_fit, beta, lr, wd, config.steps)
            tune_acc = accuracy(net, X_tune, y_tune)
            records.append(RunRecord(
                run_id, s, method, task_name, split, "accuracy", tune_acc,
                {**base_extra, "config_id": cid, "beta": f"{beta:g}",
                 "lr": f"{lr:g}", "wd": f"{wd:g}"},
            ))
            key = (-tune_acc, beta, lr, wd)
            if best is None or key < best[0]:
                best = key, cid, net
        _, chosen, winner = best
        test_acc = accuracy(winner, X_test, task.test_env.y)
        test_accs.append(test_acc)
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
