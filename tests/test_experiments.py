import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richlab.core_nn import Schedule, TrainConfig
from richlab.errors import DataError, EpisodeError, ParameterError, TrainingError
from richlab.experiments import (
    CSV_HEADER,
    FewshotConfig,
    OodConfig,
    OodTask,
    Representation,
    RunRecord,
    TransferConfig,
    default_shift_spec,
    default_split_spec,
    episode_accuracies,
    fit_cosine_classifier,
    load_records_csv,
    make_class_split_tasks,
    make_shift_task,
    ood_sample,
    parse_extra,
    SPLITS,
    records_to_csv_text,
    run_fewshot,
    run_ood,
    run_transfer,
    snapshot_schedule,
    write_records_csv,
    _env_objective_fn,
)
from richlab.richrep import DistillSpec
from richlab.rng import SplitMix64
from richlab.tasks import Dataset, EpisodeSpec, ShiftSpec, gen_shift, sample_episode

FAST_TRAIN = TrainConfig(lr=0.1, epochs=8, batch_size=32, momentum=0.9)


def tiny_spec():
    return ShiftSpec(
        n_classes=3, d_core=3, d_spur=3, d_noise=2,
        core_scale=1.0, spur_scale=2.5, noise_std=0.5,
        env_correlations=(0.9, 0.8), ood_correlation=1 / 3, n_per_env=120,
    )


# ---------------------------------------------------------------------------
# vREx objective

def vrex_of_risks(risks, beta: float) -> float:
    """The trainer's objective on one two-class row per environment: logits
    (0, log(e^r - 1)) and label 0 give the row the risk ``r``."""
    z = np.log(np.expm1(np.asarray(risks, dtype=np.float64)))
    logits = np.column_stack([np.zeros_like(z), z])
    return _env_objective_fn(np.zeros(len(z), dtype=int), np.arange(len(z)), beta, 2)(logits)[0]


def test_vrex_constant_risks():
    assert vrex_of_risks([0.4, 0.4, 0.4], beta=7.0) == pytest.approx(0.4)


def test_vrex_beta_zero_is_mean():
    assert vrex_of_risks([0.2, 0.8], beta=0.0) == pytest.approx(0.5)


def test_vrex_population_variance():
    # risks (0.5, 2.5): mean 1.5, population variance 1 -> objective 2.5
    assert vrex_of_risks([0.5, 2.5], beta=1.0) == pytest.approx(2.5)


def test_vrex_monotone_in_beta():
    risks = [0.1, 0.5, 0.9]
    vals = [vrex_of_risks(risks, b) for b in (0.0, 0.5, 1.0, 10.0)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# record emission

def rec(**over):
    base = dict(run_id="r", seed=1, method="erm", task="t", split="id_test",
                metric="accuracy", value=0.5, extra={})
    base.update(over)
    return RunRecord(**base)


def test_csv_header_and_format(tmp_path):
    path = tmp_path / "out.csv"
    write_records_csv([rec(value=0.123456789), rec(seed=2, value=1 / 3)], path)
    raw = path.read_bytes().decode()
    lines = raw.split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1].endswith("0.123457,")  # six significant digits
    assert "\r" not in raw


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "out.csv"
    records = [rec(extra={"a": "1", "b": "x"}), rec(seed=2)]
    write_records_csv(records, path)
    back = load_records_csv(path)
    assert back[0].extra == {"a": "1", "b": "x"}
    assert back[1].seed == 2


def test_duplicate_records_rejected():
    with pytest.raises(DataError):
        records_to_csv_text([rec(), rec()])


def test_reserved_characters_rejected():
    with pytest.raises(DataError):
        records_to_csv_text([rec(extra={"a": "x,y"})])


def test_pipe_in_extra_and_comma_or_line_break_in_text_rejected():
    # each would write a CSV that load_records_csv cannot read back
    for extra in ({"a|b": "1"}, {"a": "1|2"}):
        with pytest.raises(DataError, match="reserved"):
            records_to_csv_text([rec(extra=extra)])
    for field in ("run_id", "method", "task", "metric"):
        for bad in ("a,b", "a\nb", "a\rb", "a\u2028b"):
            with pytest.raises(DataError, match=field):
                records_to_csv_text([rec(**{field: bad})])


# text fields and extras as load_records_csv must read them back, or as
# the writer must refuse them
_TEXT_FORBIDDEN = set(",\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")
_EXTRA_FORBIDDEN = _TEXT_FORBIDDEN | set(";=|")
_CSV_RECORDS = st.lists(st.fixed_dictionaries({
    "run_id": st.text(max_size=6), "seed": st.integers(-2**40, 2**40),
    "method": st.text(max_size=6), "task": st.text(max_size=6),
    "split": st.sampled_from(SPLITS), "metric": st.text(max_size=6),
    "value": st.floats(allow_nan=False, allow_infinity=False),
    "extra": st.dictionaries(st.text(max_size=4), st.text(max_size=4), max_size=3),
}), min_size=1, max_size=4)


@settings(deadline=None, max_examples=200)
@given(_CSV_RECORDS)
def test_csv_roundtrips_or_rejects_on_write(tmp_path_factory, fields):
    for i, f in enumerate(fields):
        f["run_id"] += str(i)           # distinct keys: duplicates are refused anyway
    records = [RunRecord(**f) for f in fields]
    bad = any(_TEXT_FORBIDDEN & set(f[name])
              for f in fields for name in ("run_id", "method", "task", "metric"))
    bad |= any(_EXTRA_FORBIDDEN & set(k + v) for f in fields for k, v in f["extra"].items())
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    if bad:
        with pytest.raises(DataError):
            write_records_csv(records, path)
        return
    write_records_csv(records, path)
    back = load_records_csv(path)
    for r, f in zip(back, fields, strict=True):
        assert (r.run_id, r.seed, r.method, r.task, r.split, r.metric, r.extra) == (
            f["run_id"], f["seed"], f["method"], f["task"], f["split"], f["metric"],
            f["extra"])
        assert r.value == float(f"{f['value']:.6g}")


def test_record_split_validated():
    with pytest.raises(ParameterError):
        rec(split="nope")


def test_header_mismatch_detected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("wrong,header\n1,2\n")
    with pytest.raises(DataError):
        load_records_csv(path)


def test_invalid_utf8_is_data_error_naming_the_path_and_byte(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(CSV_HEADER.encode() + b"\n\x80\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: byte {len(CSV_HEADER) + 1}: "):
        load_records_csv(path)


WRITTEN_AS = "the writer writes this record as "


@pytest.mark.parametrize("body,cause", [
    ("r,x,m,t,id_test,acc,0.5,", "int"),                   # non-integer seed
    ("r,1,m,t,id_test,acc,abc,", "float"),                 # non-float value
    ("r,1,m,t,id_test,acc,0.5,a=1|b", WRITTEN_AS),         # extra field without '='
    ("r,1,m,t,id_test,acc,0.5", "unpack"),                 # wrong field count
    ("r,1,m,t,id_test,acc,0.5,,x", "unpack"),
    # what the writer refuses, the loader refuses: every file that loads can be written back
    ("r,1,m,t,id_test,acc,0.5,a=1|a=2", WRITTEN_AS),       # an extra key named twice
    ("r,1,m,t,id_test,acc,0.5,a=b;c", "reserved"),
    ("r,1,m,t,id_test,acc,0.5,a=b=c", "reserved"),
    ("r,1,m,t,id_test,acc,0.7,a=1", "duplicate record"),   # the line before, another value
    # a line that reads as a record the writer writes as other bytes
    ("r,1_0,m,t,id_test,acc,0.5,", WRITTEN_AS + "'r,10,"),
    ("r,+1,m,t,id_test,acc,0.5,", WRITTEN_AS + "'r,1,"),
    ("r,1,m,t,id_test,acc, 0.5 ,", WRITTEN_AS + "'r,1,m,t,id_test,acc,0.5,'"),
    ("r,1,m,t,id_test,acc,5e-1,", WRITTEN_AS + "'r,1,m,t,id_test,acc,0.5,'"),
    ("r,1,m,t,id_test,acc,0.1234567,", WRITTEN_AS + "'r,1,m,t,id_test,acc,0.123457,'"),
    ("r,1,m,t,id_test,acc,0.5,b=1|a=2", WRITTEN_AS + "'r,1,m,t,id_test,acc,0.5,a=2|b=1'"),
    ("\nr,2,m,t,id_test,acc,0.5,", "unpack"),              # a blank line between rows
])
def test_malformed_line_is_data_error_naming_the_line(tmp_path, body, cause):
    path = tmp_path / "bad.csv"
    path.write_text(f"{CSV_HEADER}\nr,1,m,t,id_test,acc,0.5,a=1\n{body}\n")
    with pytest.raises(DataError, match=f"line 3: .*{re.escape(cause)}"):
        load_records_csv(path)


@pytest.mark.parametrize("path", sorted(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden").glob("*.csv")),
    ids=lambda path: path.stem)
def test_each_golden_csv_loads_and_writes_back_byte_for_byte(path):
    assert records_to_csv_text(load_records_csv(path)).encode() == path.read_bytes()


@settings(deadline=None, max_examples=300)
@given(st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=40)
       | st.lists(st.sampled_from(["r", "1", "-3", "x", "id_test", "acc", "0.5", "nan",
                                   "a=1", "a=1|b", "=", "|", ""]),
                  min_size=6, max_size=10).map(",".join))
def test_any_one_line_body_loads_or_is_data_error(tmp_path_factory, body):
    path = tmp_path_factory.mktemp("csv") / "one.csv"
    path.write_bytes(f"{CSV_HEADER}\n{body}\n".encode("utf-8"))
    try:
        records = load_records_csv(path)
    except DataError:
        return
    assert all(isinstance(r, RunRecord) for r in records)
    records_to_csv_text(records)  # what loads can be written back


def test_parse_extra_empty():
    assert parse_extra("") == {}


# ---------------------------------------------------------------------------
# transfer pipeline

def small_task(seed=500):
    return make_shift_task(tiny_spec(), seed, ood_train_rows=150, ood_test_rows=200)


def test_cat1_equals_erm_records():
    task = small_task()
    cfg = TransferConfig(hidden=(6,), n_episodes=1, train=FAST_TRAIN, methods=("erm", "cat"),
                         seeds=(11, 22))
    recs = run_transfer(task, task, cfg)
    by = {}
    for r in recs:
        by[(r.method, r.seed, r.split, r.metric)] = r.value
    for seed in (11, 22):
        for split, metric in (("id_test", "probe_accuracy"),
                              ("ood_test", "probe_accuracy"),
                              ("id_train", "probe_cost")):
            assert by[("cat1", seed, split, metric)] == pytest.approx(
                by[("erm", seed, split, metric)], abs=1e-6)


def test_transfer_emits_expected_methods():
    task = small_task()
    cfg = TransferConfig(hidden=(6,), train=FAST_TRAIN,
                         ft=TrainConfig(lr=0.05, epochs=3, batch_size=16, momentum=0.9),
                         distill_train=TrainConfig(lr=0.01, epochs=6, batch_size=32,
                                                   momentum=0.9),
                         methods=("erm", "cat", "distill", "joint", "catsub",
                                  "init-ft", "2ft"),
                         n_episodes=2, seeds=(7,))
    recs = run_transfer(task, task, cfg)
    methods = {r.method for r in recs}
    assert {"erm", "cat2", "distill2", "joint2", "catsub", "init-ft", "2ft",
            "ft-best-leg"} <= methods
    gaps = [r for r in recs if r.metric == "leg_gap"]
    assert {r.method for r in gaps} == {"cat2", "joint2"}


def test_transfer_deterministic_records():
    task = small_task()
    cfg = TransferConfig(hidden=(6,), n_episodes=2, train=FAST_TRAIN, methods=("erm", "cat"),
                         seeds=(3,))
    a = records_to_csv_text(run_transfer(task, task, cfg))
    b = records_to_csv_text(run_transfer(task, task, cfg))
    assert a == b


def test_transfer_leg_gap_and_catsub_equal_per_extractor_loops():
    # the stacked per-extractor probes give the records of one fit per leg
    from richlab.core_nn import extract_features
    from richlab.probing import fit_probe
    from richlab.richrep import subset_ensemble_predict, train_episodes
    from richlab.rng import derive_seed
    from test_richrep import plain_trunks

    task = small_task()
    cfg = TransferConfig(hidden=(6,), n_episodes=3, train=FAST_TRAIN, methods=("cat", "catsub"),
                         seeds=(7,))
    by = {(r.method, r.split, r.metric): r for r in run_transfer(task, task, cfg)}
    bank = train_episodes(task.train, (6,), FAST_TRAIN, [derive_seed(7, i) for i in range(3)])

    def loop(ds):
        return [fit_probe(extract_features(trunk, ds.X), ds.y, cfg.probe,
                          n_classes=ds.n_classes) for trunk in plain_trunks(bank)]

    accs = [p.train_accuracy for p in loop(task.train)]
    gap = by[("cat3", "id_train", "leg_gap")]
    assert gap.value == max(accs) - min(accs)
    assert gap.extra["legs"] == "/".join(f"{a:.4f}" for a in accs)
    for split, fit_ds, ds in (("id_test", task.train, task.id_test),
                              ("ood_test", task.ood_train, task.ood_test)):
        proba = subset_ensemble_predict(bank, loop(fit_ds), ds.X)
        acc = float((proba.argmax(axis=1) == ds.y).mean())
        assert by[("catsub", split, "probe_accuracy")].value == acc


@pytest.mark.parametrize("kind,target", [("shift", "ood_sample"), ("class_split", "novel")])
def test_transfer_probe_cache_equals_refitting_every_problem(monkeypatch, kind, target):
    # targets that differ from the pretraining task still repeat problems
    # (erm is leg 0 of catsub's stacks); a held probe must give the records
    # of a refit
    from richlab import cli, probing
    from richlab.probing import ProbeCache

    cfg = {"n_seeds": 1, "n_episodes": 2, "hidden": [6], "target": target,
           "target_rows": 60, "methods": ["erm", "cat", "distill", "joint", "catsub"],
           "task": {"kind": kind, "n_classes": 4, "d_core": 4, "d_spur": 4, "d_noise": 2,
                    "n_per_env": 80},
           "train": {"lr": 0.1, "epochs": 3, "batch_size": 32, "momentum": 0.9},
           "distill_train": {"lr": 0.01, "epochs": 2, "batch_size": 32, "momentum": 0.9},
           "probe": {"l2": 1e-3, "max_iters": 100}}
    problems = []

    def counted(features, *args, **kwargs):
        problems.append(np.shape(features)[0] if np.ndim(features) == 3 else 1)
        return fit_probe(features, *args, **kwargs)

    fit_probe = probing.fit_probe
    monkeypatch.setattr(probing, "fit_probe", counted)
    read = set()
    run = cli._merged(cli.RunConfig(master_seed=3), cfg, read)
    cached = cli._transfer_pipeline(cfg, run, read)()
    n_cached, problems[:] = sum(problems), []
    monkeypatch.setattr(ProbeCache, "key", lambda self, *args: object())
    refit = cli._transfer_pipeline(cfg, run, read)()
    assert cached == refit
    assert n_cached < sum(problems)


def test_transfer_probe_cost_monotone_in_members():
    # concatenating more episodes never raises the training probe cost
    from dataclasses import replace

    task = small_task()
    cfg1 = TransferConfig(hidden=(6,), train=FAST_TRAIN, methods=("cat",), seeds=(5,))
    costs = {}
    for n in (1, 2, 3):
        recs = run_transfer(task, task, replace(cfg1, n_episodes=n))
        costs[n] = [r.value for r in recs
                    if r.metric == "probe_cost" and r.split == "id_train"][0]
    assert costs[2] <= costs[1] + 1e-3
    assert costs[3] <= costs[2] + 1e-3


# ---------------------------------------------------------------------------
# the method table

def test_the_method_table_gives_each_pipeline_todays_methods():
    from richlab import cli
    from richlab.experiments import METHODS, methods_of

    taken = {"transfer": ("erm", "cat", "distill", "joint", "catsub", "init-ft", "2ft"),
             "fewshot": ("erm", "cat", "distill", "cat-s", "snaps"),
             "ood": ("cat", "distill")}
    assert list(METHODS) == ["erm", "cat", "distill", "joint", "cat-s", "snaps",
                             "catsub", "init-ft", "2ft"]
    for pipeline, names in taken.items():
        assert methods_of(pipeline) == names
    for name in METHODS:
        for config, pipeline in ((TransferConfig, "transfer"), (FewshotConfig, "fewshot")):
            if name in taken[pipeline]:
                config(methods=(name,))
            else:
                with pytest.raises(ParameterError, match=f"unknown .*method.*'{name}'"):
                    config(methods=(name,))
        if name in taken["ood"]:
            OodConfig(init=name)
        else:
            with pytest.raises(ParameterError, match=f"init: '{name}' is not one of"):
                OodConfig(init=name)
    # an ood init's bank reads the settings of its own method's row, and no others
    transfer_keys = {"hidden": [4], "n_episodes": 2, "train": {"lr": 0.5},
                     "distill": {"tau": 2.0}, "distill_train": {"lr": 0.5}, "ft": {"lr": 0.5},
                     "stage2_epochs": 2, "stage2_lr": 0.5, "methods": ["cat"],
                     "target": "same", "target_rows": 9, "include_anchors": False,
                     "probe": {"l2": 0.5}}
    bank_keys = {"cat": {"hidden", "n_episodes", "train"},
                 "distill": {"hidden", "n_episodes", "train", "distill", "distill_train"}}
    for init in taken["ood"]:
        assert set(METHODS[init].reads) == bank_keys[init]
        read = set()
        cli._ood_pipeline({"ood": {"init": init}, **transfer_keys}, cli.RunConfig(), read)
        assert {path[0] for path in read} & set(transfer_keys) == bank_keys[init]


# every setting a method can read, and a value of it that moves the bytes of
# some method that reads it
MOVED = {"hidden": (5,), "n_episodes": 3, "train": replace(FAST_TRAIN, lr=0.05),
         "distill": DistillSpec(mode="ce_kl", tau=2.0, alpha=0.5, student_arch=(4,)),
         "distill_train": TrainConfig(lr=0.05, epochs=3, batch_size=16, momentum=0.9),
         "n_snapshots": 2, "snapshot_lr_mult": 4.0,
         "ft": TrainConfig(lr=0.2, epochs=5, batch_size=8, momentum=0.9),
         "stage2_epochs": 6, "stage2_lr": 1.0}


def _settings(**moved):
    from types import SimpleNamespace

    return SimpleNamespace(**{
        "hidden": (6,), "n_episodes": 2, "train": FAST_TRAIN,
        "distill": DistillSpec(mode="kl", tau=10.0, alpha=0.9, student_arch=(6,)),
        "distill_train": TrainConfig(lr=0.01, epochs=2, batch_size=32, momentum=0.9),
        "n_snapshots": 4, "snapshot_lr_mult": 8.0, **moved})


def _bank_bytes(reps):
    return [(rep.name, [(layer.weights.tobytes(), layer.bias.tobytes())
                        for layer in rep.bank.trunk.layers]) for rep in reps]


def test_a_representation_reads_no_setting_outside_its_row():
    from richlab.experiments import METHODS, build_representations

    data = small_task().train
    assert set(MOVED) == {key for m in METHODS.values() for key in m.reads}
    built = {}
    for name, m in METHODS.items():
        if m.build is None:
            continue
        built[name] = _bank_bytes(build_representations([name], data, _settings(), 7))
        unread = {key: value for key, value in MOVED.items() if key not in m.reads}
        assert _bank_bytes(build_representations([name], data, _settings(**unread), 7)) \
            == built[name], name
    # each moved value counts: it moves a representation that reads it
    for key in ("hidden", "n_episodes", "train", "distill", "distill_train", "n_snapshots",
                "snapshot_lr_mult"):
        readers = [name for name in built if key in METHODS[name].reads]
        assert any(_bank_bytes(build_representations(
            [name], data, _settings(**{key: MOVED[key]}), 7)) != built[name]
            for name in readers), key


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_diverging_snapshot_run_names_the_method_and_the_run_seed():
    from richlab.experiments import build_representations
    from richlab.rng import derive_seed

    with pytest.raises(EpisodeError) as info:
        build_representations(["cat-s"], small_task().train, _settings(snapshot_lr_mult=1e7), 7)
    inner = info.value.__cause__
    assert str(info.value) == f"cat-s with seed 7: {inner}"
    assert str(inner) == f"snapshot episode diverged: {inner.__cause__}"
    assert (info.value.seed, inner.seed) == (7, derive_seed(7, 42))
    assert info.value.epoch == inner.epoch is not None


def test_a_fine_tune_reads_no_setting_outside_its_row():
    from dataclasses import fields

    from richlab.experiments import METHODS

    task = small_task()
    settings = vars(_settings())
    base = TransferConfig(**{f.name: settings[f.name] for f in fields(TransferConfig)
                             if f.name in settings}, seeds=(7,))
    tunes = [name for name, m in METHODS.items() if m.score is not None]
    assert tunes == ["catsub", "init-ft", "2ft"]
    for name in tunes:
        cfg = replace(base, methods=(name,))
        want = run_transfer(task, task, cfg)
        unread = {key: value for key, value in MOVED.items()
                  if key not in METHODS[name].reads and hasattr(cfg, key)}
        assert run_transfer(task, task, replace(cfg, **unread)) == want, name
    # the fine-tune settings move the records of 2ft, which reads them all
    cfg = replace(base, methods=("2ft",))
    want = run_transfer(task, task, cfg)
    for key in ("ft", "stage2_epochs", "stage2_lr"):
        assert run_transfer(task, task, replace(cfg, **{key: MOVED[key]})) != want, key


# ---------------------------------------------------------------------------
# few-shot pipeline

def test_fewshot_oracle_representation_is_perfect():
    # noiseless, fully correlated rows: every example of a class is the
    # same vector, so any support-fitted classifier scores 1.0 on queries
    spec = ShiftSpec(
        n_classes=6, d_core=6, d_spur=6, d_noise=0,
        core_scale=1.0, spur_scale=2.0, noise_std=0.0,
        env_correlations=(1.0,), ood_correlation=1.0, n_per_env=240,
    )
    base, novel = make_class_split_tasks(
        make_shift_task(spec, 77, ood_train_rows=60, ood_test_rows=60))
    cfg = FewshotConfig(hidden=(6,), methods=("erm",), n_episodes_eval=20, train=FAST_TRAIN,
                        seeds=(9,))
    recs = run_fewshot(base, novel.train, EpisodeSpec(3, 1, 5), cfg, run_id="fs")
    means = [r.value for r in recs if r.metric == "mean_accuracy"]
    assert means == [1.0]


def test_fewshot_std_is_sample_std():
    spec = tiny_spec()
    base, novel = make_class_split_tasks(make_shift_task(ShiftSpec(
        n_classes=4, d_core=4, d_spur=4, d_noise=2,
        core_scale=1.0, spur_scale=2.0, noise_std=0.6,
        env_correlations=(0.9,), ood_correlation=0.25, n_per_env=200,
    ), 3, ood_train_rows=100, ood_test_rows=100))
    cfg = FewshotConfig(hidden=(6,), methods=("erm",), n_episodes_eval=12, train=FAST_TRAIN,
                        seeds=(4,))
    spec_ep = EpisodeSpec(2, 2, 6)
    recs = run_fewshot(base, novel.train, spec_ep, cfg, run_id="fs")
    mean = [r.value for r in recs if r.metric == "mean_accuracy"][0]
    std = [r.value for r in recs if r.metric == "std_accuracy"][0]

    # recompute through the exposed helper with the same derived streams
    from richlab.richrep import cat_features, train_episodes
    from richlab.rng import derive_seed

    bank = train_episodes(base.train, (6,), FAST_TRAIN,
                          [derive_seed(4, i) for i in range(5)])
    single = bank.member(0)
    rng = SplitMix64(derive_seed(4, 900))
    episodes = np.stack([sample_episode(novel.train, spec_ep, rng) for _ in range(12)])
    (accs,) = episode_accuracies([lambda rows: cat_features(single, novel.train.X[rows])],
                                 episodes, spec_ep, cfg, seed=derive_seed(4, 7000))
    assert mean == pytest.approx(accs.mean())
    assert std == pytest.approx(accs.std(ddof=1))


@pytest.mark.parametrize("kwargs,words", [
    ({"n_episodes_eval": 1}, "n_episodes_eval: 1 is less than the minimum of 2"),
    ({"n_episodes_eval": 0}, "n_episodes_eval: 0 is less than the minimum of 2"),
    ({"methods": ("erm", "cat-s"), "train": replace(FAST_TRAIN, epochs=0)}, "train.epochs"),
    ({"methods": ("snaps",), "train": replace(FAST_TRAIN, epochs=0)}, "train.epochs"),
    ({"methods": ("erm", "cat-s"), "train": replace(FAST_TRAIN, epochs=2), "n_snapshots": 5},
     "got n_snapshots 5 and train.epochs 2"),
    ({"methods": ("snaps",), "train": replace(FAST_TRAIN, epochs=4), "n_snapshots": 5},
     "got n_snapshots 5 and train.epochs 4"),
], ids=["one-episode", "no-episode", "cat-s-zero-epochs", "snaps-zero-epochs",
        "cat-s-more-snapshots-than-epochs", "snaps-more-snapshots-than-epochs"])
def test_fewshot_config_refuses_what_the_run_would_fail_on(kwargs, words):
    with pytest.raises(ParameterError, match=words):
        FewshotConfig(**kwargs)
    # zero epochs stays a valid (untrained) run of the other methods
    FewshotConfig(methods=("erm", "cat"), train=replace(FAST_TRAIN, epochs=0))
    # as do more snapshots than epochs without a snapshot method, and as
    # many snapshots as epochs with one
    FewshotConfig(methods=("erm", "cat"), train=replace(FAST_TRAIN, epochs=2), n_snapshots=5)
    FewshotConfig(methods=("cat-s", "snaps"), train=replace(FAST_TRAIN, epochs=5),
                  n_snapshots=5)


def _lone_accuracies(feature_fn, episodes, spec, cfg):
    """The accuracies of fitting each episode alone, on features extracted
    per episode."""
    from richlab.probing import fit_probe

    # drawn class j is label j; each class's support rows come first
    support_y = np.repeat(np.arange(spec.n_way), spec.k_shot)
    query_y = np.repeat(np.arange(spec.n_way), spec.n_query)
    reference = []
    for rows in episodes:
        probe = fit_probe(feature_fn(rows[:, :spec.k_shot].reshape(-1)), support_y, cfg.probe,
                          n_classes=spec.n_way)
        query = feature_fn(rows[:, spec.k_shot:].reshape(-1))
        reference.append(float((probe.predict(query) == query_y).mean()))
    return reference


def _split_tasks():
    """The base and novel tasks of a 5-class shift task."""
    return make_class_split_tasks(make_shift_task(ShiftSpec(
        n_classes=5, d_core=5, d_spur=5, d_noise=2,
        core_scale=1.0, spur_scale=2.0, noise_std=0.8,
        env_correlations=(0.9,), ood_correlation=0.25, n_per_env=200,
    ), 5, ood_train_rows=100, ood_test_rows=100))


def _novel_bank_and_episodes():
    """A novel split, a 2-member bank trained on its base split, and nine
    episodes' row positions."""
    from richlab.probing import ProbeConfig
    from richlab.richrep import train_episodes

    base, novel = _split_tasks()
    bank = train_episodes(base.train, (6,), FAST_TRAIN, [11, 12])
    spec = EpisodeSpec(3, 2, 5)
    rng = SplitMix64(21)
    episodes = np.stack([sample_episode(novel.train, spec, rng) for _ in range(9)])
    cfg = FewshotConfig(probe=ProbeConfig(l2=1e-3, max_iters=150, grad_tol=1e-6))
    return novel.train, bank, episodes, spec, cfg


def _episodes_and_reference():
    """Nine episodes' row positions, a feature function of positions, and the
    accuracies of fitting each episode alone on features extracted per
    episode."""
    from richlab.richrep import cat_features

    novel, bank, episodes, spec, cfg = _novel_bank_and_episodes()

    def feature_fn(rows):
        return cat_features(bank, novel.X[rows])

    return feature_fn, episodes, spec, cfg, _lone_accuracies(feature_fn, episodes, spec, cfg)


def test_episode_accuracies_match_one_episode_at_a_time():
    # the stacked support solve must reproduce fitting each episode alone,
    # with features extracted per episode, exactly
    feature_fn, episodes, spec, cfg, reference = _episodes_and_reference()
    (accs,) = episode_accuracies([feature_fn], episodes, spec, cfg)
    assert accs.tolist() == reference
    assert len(set(reference)) > 1      # episodes differ, so order is checked too


@pytest.mark.parametrize("block", [1, 4, 9])
def test_episode_blocks_match_one_episode_at_a_time(monkeypatch, block):
    # blocks that split the episodes unevenly, one per episode, and exactly one
    from richlab import experiments

    feature_fn, episodes, spec, cfg, reference = _episodes_and_reference()
    monkeypatch.setattr(experiments, "EPISODE_BLOCK", block)
    assert episode_accuracies([feature_fn], episodes, spec, cfg).tolist() == [reference]


def _mixed_width_feature_fns():
    """Feature functions by width, as ``run_fewshot`` groups them: the two
    6-wide members of a bank, and the bank's 12-wide concatenation beside
    the 12-wide raw input."""
    from richlab.richrep import cat_features

    novel, bank, episodes, spec, cfg = _novel_bank_and_episodes()
    members = [bank.member(j) for j in range(len(bank))]
    groups = {6: [lambda rows, b=m: cat_features(b, novel.X[rows]) for m in members],
              12: [lambda rows: cat_features(bank, novel.X[rows]), lambda rows: novel.X[rows]]}
    return groups, episodes, spec, cfg


@pytest.mark.parametrize("block", [1, 4, 9])
def test_grouped_support_solves_match_one_representation_at_a_time(monkeypatch, block):
    # each width's functions in one call, their support problems stacked
    # under the bound of the widest, give each function's lone per-episode
    # accuracies exactly
    from richlab import experiments

    groups, episodes, spec, cfg = _mixed_width_feature_fns()
    monkeypatch.setattr(experiments, "EPISODE_BLOCK", block)
    for fns in groups.values():
        accs = episode_accuracies(fns, episodes, spec, cfg, widest=max(groups))
        assert accs.tolist() == [_lone_accuracies(fn, episodes, spec, cfg) for fn in fns]


def test_the_memory_bound_splits_a_width_group_over_solves_one_representation_at_a_time(
        monkeypatch):
    # a solve holds at most EPISODE_BLOCK episodes' support features of the
    # widest width: blocks of 4 episodes hold two 6-wide functions but one
    # 12-wide function, and the last block of 1 episode holds all of either
    from richlab import experiments

    groups, episodes, spec, cfg = _mixed_width_feature_fns()
    monkeypatch.setattr(experiments, "EPISODE_BLOCK", 4)
    fit_probe, solves = experiments.fit_probe, []

    def recording(features, *args, **kwargs):
        solves.append(np.shape(features))
        return fit_probe(features, *args, **kwargs)

    monkeypatch.setattr(experiments, "fit_probe", recording)
    n_rows = spec.n_way * spec.k_shot
    for width, fns in groups.items():
        solves.clear()
        accs = episode_accuracies(fns, episodes, spec, cfg, widest=max(groups))
        assert solves == ({6: [(8, n_rows, 6)] * 2, 12: [(4, n_rows, 12)] * 4}[width]
                          + [(2, n_rows, width)])
        assert accs.tolist() == [_lone_accuracies(fn, episodes, spec, cfg) for fn in fns]


def test_run_fewshot_of_mixed_widths_matches_one_representation_at_a_time():
    # erm and the snapshots are 6 wide, cat and cat-s 12 wide; the grouped
    # run's records equal those of evaluating each representation alone
    from richlab.experiments import build_representations
    from richlab.richrep import cat_features
    from richlab.rng import derive_seed

    base, novel = _split_tasks()
    spec = EpisodeSpec(3, 2, 4)
    cfg = FewshotConfig(hidden=(6,), n_episodes=2, n_snapshots=2, methods=("erm", "cat", "cat-s",
                        "snaps"), n_episodes_eval=7, train=FAST_TRAIN, seeds=(4,))
    recs = run_fewshot(base, novel.train, spec, cfg)
    reps = build_representations(cfg.methods, base.train, cfg, 4)
    assert sorted({rep.bank.total_dim for rep in reps}) == [6, 12]
    rng = SplitMix64(derive_seed(4, 900))
    episodes = np.stack([sample_episode(novel.train, spec, rng) for _ in range(7)])
    expected = []
    for rep in reps:
        (accs,) = episode_accuracies([lambda rows: cat_features(rep.bank, novel.train.X[rows])],
                                     episodes, spec, cfg, derive_seed(4, 7000))
        expected += [(rep.name, "mean_accuracy", float(accs.mean())),
                     (rep.name, "std_accuracy", float(accs.std(ddof=1)))]
    assert [(r.method, r.metric, r.value) for r in recs] == expected


def test_a_cosine_failure_names_its_representation_not_the_first_of_its_width(monkeypatch):
    # snap2 shares erm's width; a trunk that maps every row to zero makes its
    # first cosine support fit fail, and the error names snap2 alone
    from richlab import experiments

    build = experiments.build_representations

    def with_zero_snap2(*args, **kwargs):
        reps = build(*args, **kwargs)
        for rep in reps:
            if rep.name == "snap2":
                for layer in rep.bank.trunk.layers:
                    layer.weights[...] = 0.0
                    layer.bias[...] = 0.0
        return reps

    monkeypatch.setattr(experiments, "build_representations", with_zero_snap2)
    base, novel = _split_tasks()
    cfg = FewshotConfig(hidden=(16,), n_snapshots=3, methods=("erm", "snaps"), n_episodes_eval=3,
                        train=FAST_TRAIN, classifier="cosine", seeds=(4,))
    with pytest.raises(EpisodeError) as info:
        run_fewshot(base, novel.train, EpisodeSpec(3, 2, 4), cfg)
    assert str(info.value) == ("snap2 with seed 4: cosine classifier of episode 0 failed: "
                               "training diverged at epoch 0: cosine head input has a "
                               "zero-norm row")
    assert info.value.seed == 4


def test_few_shot_memory_stays_flat_in_the_episode_count(monkeypatch):
    # identity features on a wide novel split; episodes held as row copies
    # grew the peak by episodes x rows x width x 8 bytes, 5.7 MB from 20 to
    # 200 episodes here.  Blocks of 20 keep the stacked solve one size, so
    # only the episode count changes between the two runs.
    import tracemalloc

    from richlab import experiments
    from richlab.probing import ProbeConfig

    monkeypatch.setattr(experiments, "EPISODE_BLOCK", 20)
    rng = SplitMix64(5)
    novel = Dataset(rng.normal(400 * 200).reshape(400, 200), np.arange(400) % 4, 4)
    spec = EpisodeSpec(2, 2, 8)
    cfg = FewshotConfig(probe=ProbeConfig(l2=1e-3, max_iters=20, grad_tol=1e-6))

    def peak(n_episodes):
        tracemalloc.start()
        try:
            ep_rng = SplitMix64(7)
            episodes = np.stack([sample_episode(novel, spec, ep_rng)
                                 for _ in range(n_episodes)])
            episode_accuracies([lambda rows: novel.X[rows]], episodes, spec, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(200) - peak(20) < 1 << 20


def test_fewshot_cosine_classifier_runs():
    feats = np.vstack([np.eye(3)] * 4) + 0.01
    y = np.tile(np.arange(3), 4)
    head = fit_cosine_classifier(feats, y, 3, seed=1, epochs=30)
    from richlab.core_nn import cosine_head_forward

    pred = cosine_head_forward(feats, head).argmax(axis=1)
    assert (pred == y).mean() == 1.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_cosine_classifier_raises():
    rng = SplitMix64(9)
    feats = rng.normal(20 * 6).reshape(20, 6)
    # the gains overflow to infinity, and the head turns to NaN without the check
    with pytest.raises(TrainingError, match="non-finite gradient") as info:
        fit_cosine_classifier(feats, rng.integers(5, 20), 5, seed=1, lr=1e308, epochs=5)
    assert info.value.epoch is not None


def test_zero_feature_row_in_cosine_classifier_names_the_epoch():
    rng = SplitMix64(9)
    feats = rng.normal(20 * 6).reshape(20, 6)
    feats[13] = 0.0  # every epoch meets it: a bare NumericalError used to escape
    with pytest.raises(TrainingError, match="cosine head input has a zero-norm row") as info:
        fit_cosine_classifier(feats, rng.integers(5, 20), 5, seed=1, epochs=5)
    assert info.value.epoch == 0


@pytest.mark.parametrize("where,message,epoch", [
    ("support", "training diverged at epoch 0: cosine head input has a zero-norm row", 0),
    ("query", "cosine head input has a zero-norm row", None),
])
def test_zero_norm_row_in_a_cosine_episode_names_the_episode(where, message, epoch):
    rng = SplitMix64(9)
    spec = EpisodeSpec(3, 2, 2)
    # three 3-way episodes over 36 distinct rows, each class 2 support + 2 query
    X = rng.normal(36 * 4).reshape(36, 4)
    episodes = np.arange(36).reshape(3, 3, 4)
    # the fourth support (query) row of episode 2: class 1's second support (query) row
    X[episodes[2, 1, 1 if where == "support" else 3]] = 0.0
    cfg = FewshotConfig(classifier="cosine")
    with pytest.raises(EpisodeError) as info:
        episode_accuracies([lambda rows: X[rows]], episodes, spec, cfg)
    assert str(info.value) == f"cosine classifier of episode 2 failed: {message}"
    assert info.value.epoch == epoch


def test_snapshot_schedule_even():
    assert snapshot_schedule(100, 5) == [20, 40, 60, 80, 100]
    assert snapshot_schedule(12, 5) == [2, 5, 7, 10, 12]
    # FewshotConfig refuses n_snapshots > train.epochs; up to that bound the
    # schedule has one distinct epoch per snapshot, ending at the last one
    for epochs in range(1, 61):
        for n in range(1, epochs + 1):
            snaps = snapshot_schedule(epochs, n)
            assert len(snaps) == n and snaps[-1] == epochs
    assert snapshot_schedule(2, 5) == [1, 2]  # why a config must not ask for more


# ---------------------------------------------------------------------------
# out-of-distribution pipeline

def tiny_ood_task(seed=900):
    spec = tiny_spec()
    train_envs, _, ood_test = gen_shift(spec, seed)
    from dataclasses import replace

    tune = gen_shift(replace(spec, env_correlations=(spec.ood_correlation,)),
                     seed + 1)[0][0]
    return OodTask(train_envs, tune, ood_test)


def test_run_ood_scratch_emits_selection():
    task = tiny_ood_task()
    cfg = OodConfig(algorithm="erm", init="scratch", tune_mode="ood",
                    lr_grid=(0.1,), wd_grid=(0.0, 1e-3), steps=40,
                    hidden=(6,), seeds=(1, 2))
    recs = run_ood(task, cfg, run_id="ood", task_name="t")
    test_rows = [r for r in recs if r.split == "ood_test" and r.metric == "accuracy"]
    assert len(test_rows) == 2
    assert all("chosen" in r.extra for r in test_rows)
    agg = [r for r in recs if r.metric == "accuracy_mean"]
    assert len(agg) == 1


def test_run_ood_vrex_beta_zero_matches_erm():
    task = tiny_ood_task()
    common = dict(init="scratch", tune_mode="ood", lr_grid=(0.1,), wd_grid=(0.0,),
                  steps=40, hidden=(6,), seeds=(1,))
    erm = run_ood(task, OodConfig(algorithm="erm", **common), run_id="a", task_name="t")
    # a config refuses beta 0, as the schema always did; set past the check,
    # it runs the vrex objective with no variance term
    vrex0 = OodConfig(algorithm="vrex", beta_grid=(1.0,), **common)
    vrex0.beta_grid = (0.0,)
    vrex0 = run_ood(task, vrex0, run_id="b", task_name="t")
    acc_erm = [r.value for r in erm if r.split == "ood_test" and r.metric == "accuracy"]
    acc_vrex = [r.value for r in vrex0 if r.split == "ood_test" and r.metric == "accuracy"]
    assert acc_erm == acc_vrex


def test_run_ood_single_env_vrex_equals_erm_for_all_beta():
    spec = tiny_spec()
    train_envs, _, ood_test = gen_shift(spec, 31)
    from dataclasses import replace

    tune = gen_shift(replace(spec, env_correlations=(spec.ood_correlation,)), 32)[0][0]
    task = OodTask([train_envs[0]], tune, ood_test)
    common = dict(init="scratch", tune_mode="ood", lr_grid=(0.1,), wd_grid=(0.0,),
                  steps=40, hidden=(6,), seeds=(1,))
    erm = run_ood(task, OodConfig(algorithm="erm", **common), run_id="a", task_name="t")
    vrex = run_ood(task, OodConfig(algorithm="vrex", beta_grid=(5.0, 50.0), **common),
                   run_id="b", task_name="t")
    acc_erm = [r.value for r in erm if r.split == "ood_test" and r.metric == "accuracy"]
    acc_vrex = [r.value for r in vrex if r.split == "ood_test" and r.metric == "accuracy"]
    assert acc_erm == acc_vrex


def test_run_ood_iid_mode_uses_holdout_split():
    task = tiny_ood_task()
    cfg = OodConfig(algorithm="erm", init="scratch", tune_mode="iid",
                    lr_grid=(0.1,), wd_grid=(0.0,), steps=30, hidden=(6,), seeds=(1,))
    recs = run_ood(task, cfg, run_id="ood", task_name="t")
    assert any(r.split == "id_test" for r in recs)
    assert not any(r.split == "ood_tune" for r in recs)


@pytest.mark.parametrize("tune_mode", ["ood", "iid"])
def test_run_ood_groups_training_rows_by_their_environments_position(monkeypatch, tune_mode):
    # the first and last environments hold the same rows: a row's environment
    # is where its dataset sits in train_envs, not what the dataset holds
    import richlab.experiments as ex
    from richlab.rng import derive_seed
    from richlab.tasks import pool

    first = tiny_ood_task().train_envs[0]
    envs = [first, Dataset(first.X[:20], first.y[:20], first.n_classes), first]
    task = replace(tiny_ood_task(), train_envs=envs)
    fitted = []
    monkeypatch.setattr(ex, "_fit_ood_model",
                        lambda net0, X, y, env, *_: fitted.append((X, y, env)) or net0)
    cfg = OodConfig(algorithm="vrex", beta_grid=(1.0,), lr_grid=(0.1,), wd_grid=(0.0,),
                    tune_mode=tune_mode, hidden=(6,), seeds=(1,))
    run_ood(task, cfg, run_id="ood", task_name="t")
    ((X, y, env),) = fitted
    pooled = pool(envs)
    rows = np.arange(pooled.n)
    if tune_mode == "iid":
        rows = SplitMix64(derive_seed(1, 2)).permutation(pooled.n)[cfg.n_hold(pooled.n):]
    want = np.repeat([0, 1, 2], [first.n, 20, first.n])[rows]
    assert (env.dtype, env.tobytes()) == (np.int64, want.tobytes())
    assert (X.tobytes(), y.tobytes()) == (pooled.X[rows].tobytes(), pooled.y[rows].tobytes())


def scripted_run_ood(monkeypatch, scores, tune_mode="ood", **grid):
    """``run_ood`` on the tiny task, each candidate's tune accuracy read
    from ``scores`` by its ``(beta, lr, wd)`` (0.5 if absent), and every
    test accuracy 1.0; returns the records and the candidates whose test
    accuracy was computed."""
    import richlab.experiments as ex

    task = tiny_ood_task()
    tested = []

    def accuracy(net, X, y):
        if X is task.test_env.X:
            tested.append(net)
            return 1.0
        return scores.get(net, 0.5)

    monkeypatch.setattr(ex, "_fit_ood_model",
                        lambda net0, X, y, env, beta, lr, wd, steps: (beta, lr, wd))
    monkeypatch.setattr(ex, "accuracy", accuracy)
    cfg = OodConfig(algorithm="vrex", init="scratch", tune_mode=tune_mode, hidden=(6,),
                    seeds=(1, 2), **grid)
    return run_ood(task, cfg, run_id="ood", task_name="t"), tested


def chosen_ids(records):
    return [r.extra["chosen"] for r in records if r.split == "ood_test" and r.metric == "accuracy"]


def test_run_ood_chooses_the_best_tune_accuracy(monkeypatch):
    scores = {(1.0, 0.1, 0.0): 0.7, (5.0, 0.01, 0.0): 0.9}
    recs, tested = scripted_run_ood(monkeypatch, scores, beta_grid=(1.0, 5.0),
                                    lr_grid=(0.01, 0.1), wd_grid=(0.0,))
    assert chosen_ids(recs) == ["b5-lr0.01-wd0"] * 2
    # one test accuracy per seed, the winner's, computed after its tune scores
    assert tested == [(5.0, 0.01, 0.0)] * 2
    assert [r.split for r in recs if r.seed == 1] == ["ood_tune"] * 4 + ["ood_test"]


@pytest.mark.parametrize("tune_mode", ["ood", "iid"])
def test_run_ood_chooses_a_tune_record_of_its_own_seed(monkeypatch, tune_mode):
    recs, _ = scripted_run_ood(monkeypatch, {(5.0, 0.1, 0.0): 0.9}, tune_mode=tune_mode,
                               beta_grid=(1.0, 5.0), lr_grid=(0.1,), wd_grid=(0.0,))
    split = "ood_tune" if tune_mode == "ood" else "id_test"
    for seed, chosen in zip((1, 2), chosen_ids(recs), strict=True):
        tune = {r.extra["config_id"]: r.value for r in recs
                if r.seed == seed and r.split == split and r.metric == "accuracy"}
        assert chosen in tune and tune[chosen] == max(tune.values())


def test_run_ood_breaks_ties_by_smallest_beta_then_lr_then_wd(monkeypatch):
    scores = {(10.0, 0.1, 0.0): 0.8, (0.5, 0.1, 0.001): 0.8, (0.5, 0.01, 0.001): 0.8}
    recs, _ = scripted_run_ood(monkeypatch, scores, beta_grid=(10.0, 0.5),
                               lr_grid=(0.1, 0.01), wd_grid=(0.0, 0.001))
    assert chosen_ids(recs) == ["b0.5-lr0.01-wd0.001"] * 2
    # 0 and -0 print apart but compare equal: the first listed wins
    recs, _ = scripted_run_ood(monkeypatch, {}, beta_grid=(1.0,), lr_grid=(0.1,),
                               wd_grid=(0.0, -0.0))
    assert chosen_ids(recs) == ["b1-lr0.1-wd0"] * 2


@pytest.mark.parametrize("tune_mode", ["ood", "iid"])
def test_run_ood_breaks_a_real_tie_by_the_smallest_values_of_a_descending_grid(tune_mode):
    # a step at learning rates this small leaves every prediction as it
    # was, so all eight candidates score alike
    task = tiny_ood_task()
    cfg = OodConfig(algorithm="vrex", init="scratch", tune_mode=tune_mode, hidden=(6,),
                    beta_grid=(10.0, 0.5), lr_grid=(2e-9, 1e-9), wd_grid=(1e-3, 0.0),
                    steps=1, seeds=(1, 2))
    recs = run_ood(task, cfg, run_id="ood", task_name="t")
    for seed in (1, 2):
        tune = [r.value for r in recs if r.seed == seed and r.extra.get("config_id")]
        assert len(tune) == 8 and len(set(tune)) == 1
    assert chosen_ids(recs) == ["b0.5-lr1e-09-wd0"] * 2


def test_run_ood_with_one_candidate_chooses_it():
    task = tiny_ood_task()
    cfg = OodConfig(algorithm="vrex", init="scratch", tune_mode="ood", hidden=(6,),
                    beta_grid=(1.0,), lr_grid=(0.1,), wd_grid=(0.0,), steps=20, seeds=(1,))
    recs = run_ood(task, cfg, run_id="ood", task_name="t")
    assert chosen_ids(recs) == ["b1-lr0.1-wd0"]
    assert [r.extra.get("config_id") for r in recs if r.split == "ood_tune"] == ["b1-lr0.1-wd0"]


@pytest.mark.parametrize("grid", ["beta_grid", "lr_grid", "wd_grid"])
def test_ood_config_refuses_an_empty_grid(grid):
    # so every seed has a winner
    with pytest.raises(ParameterError, match=rf"^{grid}: \[\] should be non-empty$"):
        OodConfig(algorithm="vrex", **{grid: ()})


@pytest.mark.parametrize("grid,values,twice", [
    ("lr_grid", (0.01, 0.1, 0.01), "0.01"),
    ("wd_grid", (0.0, 1e-3, 0.0010000001), "0.001"),
    ("beta_grid", (1.0, 1.0000001), "1"),
])
def test_ood_config_refuses_two_grid_values_that_print_alike(grid, values, twice):
    with pytest.raises(ParameterError, match=f"{grid} value .* prints as '{twice}'"):
        OodConfig(algorithm="vrex", **{grid: values})


def test_ood_config_reads_no_beta_grid_for_erm():
    # erm trains at beta 0 alone, so its beta grid names no candidate
    assert OodConfig(algorithm="erm", beta_grid=(1.0, 1.0)).beta_grid == (1.0, 1.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_ood_divergence_names_seed_and_candidate():
    task = tiny_ood_task()
    cfg = OodConfig(algorithm="vrex", beta_grid=(100.0,), init="scratch", tune_mode="ood",
                    lr_grid=(50.0,), wd_grid=(0.0,), steps=40, hidden=(6,), seeds=(7,))
    with pytest.raises(TrainingError, match="b100-lr50-wd0 at seed 7") as info:
        run_ood(task, cfg, run_id="ood", task_name="t")
    assert str(info.value) == f"ood candidate b100-lr50-wd0 at seed 7 {info.value.__cause__}"
    assert isinstance(info.value, EpisodeError)
    assert info.value.seed == 7
    assert info.value.epoch is not None


def test_run_ood_cat_init_needs_bank():
    task = tiny_ood_task()
    cfg = OodConfig(algorithm="erm", init="cat", tune_mode="ood", seeds=(1,))
    with pytest.raises(ParameterError):
        run_ood(task, cfg)


@pytest.mark.parametrize("init,given", [("cat", "distill"), ("scratch", "cat")])
def test_run_ood_refuses_a_representation_its_init_does_not_name(init, given):
    from richlab.richrep import RepresentationBank, init_trunk, stack_nets

    task = tiny_ood_task()
    bank = RepresentationBank(stack_nets([init_trunk([task.test_env.d, 4], SplitMix64(1))]))
    cfg = OodConfig(algorithm="erm", init=init, tune_mode="ood", seeds=(1,))
    with pytest.raises(ParameterError, match=f"init={init!r} .* got {given!r}"):
        run_ood(task, cfg, Representation(given, given, bank))


def test_run_ood_frozen_cat_trains_head_only():
    from richlab.experiments import build_representations
    from richlab.tasks import pool

    task = tiny_ood_task()
    (rep,) = build_representations(["cat"], pool(task.train_envs),
                                   TransferConfig(hidden=(6,), n_episodes=2, train=FAST_TRAIN), 1)
    cfg = OodConfig(algorithm="vrex", beta_grid=(1.0,), init="cat", tune_mode="ood",
                    lr_grid=(0.1,), wd_grid=(0.0,), steps=40, seeds=(1,))
    recs = run_ood(task, cfg, rep, run_id="ood", task_name="t")
    assert {r.method for r in recs} == {"cat2"}   # as build_representations names it


def test_ood_bundle_draws_each_role_from_the_shift_generator():
    # train and test environments from one gen_shift draw, and a tune
    # environment of n_per_env rows at the OOD correlation from its own seed
    from dataclasses import replace

    from richlab.cli import make_ood_bundle
    from richlab.rng import derive_seed

    spec = tiny_spec()
    task = make_ood_bundle(spec, 40)
    train_envs, _, ood_test = gen_shift(spec, 40)
    tune = gen_shift(replace(spec, env_correlations=(spec.ood_correlation,)),
                     derive_seed(40, 3))[0][0]
    for got, want in zip((*task.train_envs, task.tune_env, task.test_env),
                         (*train_envs, tune, ood_test), strict=True):
        assert (got.X.tobytes(), got.y.tobytes()) == (want.X.tobytes(), want.y.tobytes())


@pytest.mark.parametrize("make_spec", [default_shift_spec, default_split_spec])
@pytest.mark.parametrize("rows", [600, 1500])
def test_ood_sample_is_the_first_environment_of_a_one_environment_shift_task(make_spec, rows):
    from dataclasses import replace

    spec = make_spec()
    got = ood_sample(spec, 77, rows)
    want = gen_shift(replace(spec, env_correlations=(spec.ood_correlation,), n_per_env=rows),
                     77)[0][0]
    assert (got.X.tobytes(), got.y.tobytes()) == (want.X.tobytes(), want.y.tobytes())
    assert (got.X.shape, got.n_classes) == (want.X.shape, want.n_classes)


def test_ood_sample_refuses_an_empty_sample():
    with pytest.raises(ParameterError):
        ood_sample(default_shift_spec(), 1, 0)
