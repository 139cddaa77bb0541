import json
from dataclasses import is_dataclass
from typing import get_args, get_origin

import pytest

from richlab import cli
from richlab.experiments import CSV_HEADER, RunRecord, write_records_csv


def write_config(tmp_path, **cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


FAST_TRANSFER = dict(
    pipeline="transfer",
    master_seed=5,
    n_seeds=2,
    n_episodes=2,
    methods=["erm", "cat"],
    hidden=[6],
    task={"kind": "shift", "n_classes": 3, "d_core": 3, "d_spur": 3, "d_noise": 2,
          "n_per_env": 100},
    train={"lr": 0.1, "epochs": 6, "batch_size": 32, "momentum": 0.9},
    probe={"l2": 0.001, "max_iters": 300},
)


def test_zero_norm_row_in_a_cosine_episode_names_method_seed_and_episode(tmp_path, capsys):
    # at width 6, erm's trunk maps a support row of few-shot episode 1 to zero
    from test_pipeline_bytes import CASES

    cfg = write_config(tmp_path, **dict(CASES["fewshot-cosine"], hidden=[6]))
    assert cli.cmd_run(cfg, out=str(tmp_path / "out")) == 3
    (seed,) = cli.RunConfig(master_seed=3, n_seeds=1).seeds
    assert capsys.readouterr().err == (
        f"runtime error: erm with seed {seed}: cosine classifier of episode 1 failed: "
        "training diverged at epoch 0: cosine head input has a zero-norm row\n")


def test_run_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not valid json")
    assert cli.cmd_run(str(path)) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("text,reason", [
    ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded while decoding"),
    ('{"pipeline": "verify", "master_seed": ' + "9" * 4301 + "}",
     "Exceeds the limit (4300 digits) for integer string conversion"),
], ids=["deep-nesting", "4301-digit-integer"])
def test_run_refuses_a_config_the_json_reader_cannot_read(tmp_path, capsys, text, reason):
    # the reader raises RecursionError and ValueError here, not JSONDecodeError
    path = tmp_path / "config.json"
    path.write_text(text)
    assert cli.cmd_run(str(path), out=str(tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: field <root>: {path}: {reason}")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text,key", [
    ('{"pipeline": "verify", "master_seed": 3, "master_seed": 0}', "master_seed"),
    (json.dumps(FAST_TRANSFER).replace('"lr": 0.1,', '"lr": 0.1, "lr": 0.2,', 1), "lr"),
], ids=["root", "in-a-section"])
def test_run_refuses_a_key_written_twice(tmp_path, capsys, text, key):
    # the JSON reader would keep the last value, and the first would do nothing
    path = tmp_path / "config.json"
    path.write_text(text)
    assert cli.cmd_run(str(path), out=str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (
        f"config error: field <root>: {path}: duplicate key {key!r}\n")
    assert not (tmp_path / "out").exists()


def test_run_names_the_path_and_byte_of_a_config_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'\xff\xfe{"pipeline": "verify"}')
    assert cli.cmd_run(str(path), out=str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (
        f"config error: field <root>: {path}: byte 0: not UTF-8: invalid start byte\n")
    assert not (tmp_path / "out").exists()


def test_run_unknown_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, pipeline="verify", tyop=1)
    assert cli.cmd_run(cfg) == 2
    err = capsys.readouterr().err
    assert "tyop" in err


@pytest.mark.parametrize("base,extra,unread", [
    ("fewshot-linear", {"target": "ood_sample", "target_rows": 10, "stage2_epochs": 9,
                        "ft": {"lr": 9.0}}, ["ft", "stage2_epochs", "target", "target_rows"]),
    ("ood-init-cat", {"target": "novel", "methods": ["joint"]}, ["methods", "target"]),
    # from scratch, an ood run builds no bank and reads none of its settings
    ("ood-scratch", {}, ["distill_train", "n_episodes", "train"]),
    ("verify", {"n_episodes": 5}, ["n_episodes"]),
    # only an ood_sample target is drawn with target_rows rows
    ("transfer-ood-sample", {"target": "same"}, ["target_rows"]),
    ("transfer-novel", {"target_rows": 70}, ["target_rows"]),
    # the property suites run at master_seed alone
    ("verify", {"n_seeds": 50}, ["n_seeds"]),
])
def test_run_refuses_a_key_its_pipeline_does_not_read(tmp_path, capsys, base, extra, unread):
    from test_pipeline_bytes import CASES, OOD

    config = dict({**CASES, "ood-scratch": OOD, "verify": {"pipeline": "verify"}}[base], **extra)
    assert cli.cmd_run(write_config(tmp_path, **config), out=str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == "".join(
        f"config error: field {key}: the {config['pipeline']} pipeline does not read this key\n"
        for key in unread)
    assert not (tmp_path / "out").exists()


def test_run_bad_enum_value(tmp_path, capsys):
    cfg = write_config(tmp_path, pipeline="discombobulate")
    assert cli.cmd_run(cfg) == 2
    assert "pipeline" in capsys.readouterr().err


def test_run_missing_file(capsys):
    assert cli.cmd_run("/nonexistent/config.json") == 2


# (rule, config, the errors the config breaks it by, as "path: message").
# A rule is a schema keyword, or the name of a bound (BOUNDS) or of the
# choice list (CHOICES) the schema once held and the code that acts on the
# value now checks, with the schema's message where the schema had one.
# The schema errors are those jsonschema's Draft7Validator gave, which also
# holds for the stricter integer and number types here; a config with one
# prints them all, sorted by path, and builds no dataclass
BOUNDS = {"minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum", "minLength",
          "minItems"}
CHOICES = {"enum"}
SCHEMA_CASES = [
    ("type", {"pipeline": "verify", "master_seed": True},
     ["master_seed: True is not of type 'integer'"]),
    ("type", {"pipeline": "transfer", "train": {"lr": True}},
     ["train/lr: True is not of type 'number'"]),
    ("type", [], ["<root>: [] is not of type 'object'"]),
    ("type", {"pipeline": "transfer", "task": [1], "output_dir": 3, "include_anchors": 1,
              "methods": "erm", "n_episodes": None},
     ["include_anchors: 1 is not of type 'boolean'", "methods: 'erm' is not of type 'array'",
      "n_episodes: None is not of type 'integer'", "output_dir: 3 is not of type 'string'",
      "task: [1] is not of type 'object'"]),
    ("enum", {"pipeline": "discombobulate"},
     ["pipeline: 'discombobulate' is not one of ['transfer', 'fewshot', 'ood', 'verify']"]),
    # a value of the wrong type is refused before its choices are read
    ("enum", {"pipeline": "verify", "schema_version": True},
     ["schema_version: True is not of type 'integer'"]),
    ("enum", {"pipeline": "verify", "schema_version": 2}, ["schema_version: 2 is not one of [1]"]),
    ("required", {}, ["<root>: 'pipeline' is a required property"]),
    ("additionalProperties", {"pipeline": "verify", "tyop": 1, "abc": 2},
     ["<root>: Additional properties are not allowed ('abc', 'tyop' were unexpected)"]),
    ("additionalProperties", {"pipeline": "transfer", "train": {"schedule": {"evry": 3}},
                              "task": {"kind": "shift", "n_class": 3}},
     ["task: Additional properties are not allowed ('n_class' was unexpected)",
      "train/schedule: Additional properties are not allowed ('evry' was unexpected)"]),
    ("properties", {"master_seed": "x", "tyop": 1},
     ["<root>: Additional properties are not allowed ('tyop' was unexpected)",
      "<root>: 'pipeline' is a required property",
      "master_seed: 'x' is not of type 'integer'"]),
    ("items", {"pipeline": "transfer", "hidden": [4, 0.5, "x", True]},
     ["hidden/1: 0.5 is not of type 'integer'", "hidden/2: 'x' is not of type 'integer'",
      "hidden/3: True is not of type 'integer'"]),
    # paths sort with their indices as numbers: 2 before 10
    ("items", {"pipeline": "transfer", "hidden": [1, 1, "a", 1, 1, 1, 1, 1, 1, 1, "b"]},
     ["hidden/2: 'a' is not of type 'integer'", "hidden/10: 'b' is not of type 'integer'"]),
    ("minimum", {"pipeline": "transfer", "probe": {"l2": -0.5}},
     ["probe/l2: -0.5 is less than the minimum of 0"]),
    # the dataclasses are built one at a time, and the first refusal ends the run
    ("maximum", {"pipeline": "transfer", "n_seeds": 51, "n_episodes": 50,
                 "distill": {"alpha": 1.5}},
     ["n_seeds: 51 is greater than the maximum of 50"]),
    ("exclusiveMinimum", {"pipeline": "transfer", "stage2_lr": 0.0},
     ["stage2_lr: 0.0 is less than or equal to the minimum of 0"]),
    ("exclusiveMaximum", {"pipeline": "ood", "ood": {"holdout_frac": 1}},
     ["ood/holdout_frac: 1 is greater than or equal to the maximum of 1"]),
    ("minLength", {"pipeline": "verify", "output_dir": ""}, ["output_dir: '' should be non-empty"]),
    ("minItems", {"pipeline": "transfer", "methods": [], "task": {"env_correlations": []}},
     ["methods: [] should be non-empty"]),
    # each TrainConfig object is checked; its errors print before any bound or choice is read
    ("type", {"pipeline": "transfer", "train": {"schedule": {"every": 0}},
              "ft": {"schedule": {"kind": "linear", "every": 2.5}},
              "distill_train": {"epochs": -1, "lr": "x"}},
     ["distill_train/lr: 'x' is not of type 'number'",
      "ft/schedule/every: 2.5 is not of type 'integer'"]),
    # a run writes only what it measured: no published reference numbers
    ("enum", {"pipeline": "transfer", "include_anchors": True},
     ["include_anchors: True is not one of [False]"]),
    ("enum", {"pipeline": "transfer", "distill": {"mode": "kld"}},
     ["distill/mode: 'kld' is not one of ['kl', 'ce_kl', 'cosine']"]),
    ("enum", {"pipeline": "fewshot", "fewshot": {"classifier": "knn"}},
     ["fewshot/classifier: 'knn' is not one of ['linear', 'cosine']"]),
    ("enum", {"pipeline": "ood", "ood": {"algorithm": "irm"}},
     ["ood/algorithm: 'irm' is not one of ['erm', 'vrex']"]),
    ("enum", {"pipeline": "ood", "ood": {"init": "joint"}},
     ["ood/init: 'joint' is not one of ['scratch', 'cat', 'distill']"]),
    ("enum", {"pipeline": "ood", "ood": {"tune_mode": "test"}},
     ["ood/tune_mode: 'test' is not one of ['iid', 'ood']"]),
    ("enum", {"pipeline": "transfer", "train": {"schedule": {"kind": "linear"}}},
     ["train/schedule/kind: 'linear' is not one of ['constant', 'step', 'cosine']"]),
    ("enum", {"pipeline": "transfer", "ft": {"schedule": {"kind": "linear"}}},
     ["ft/schedule/kind: 'linear' is not one of ['constant', 'step', 'cosine']"]),
    ("enum", {"pipeline": "fewshot", "task": {"kind": "shift"}},
     ["task/kind: task kind 'shift' does not apply to the fewshot pipeline; "
      "choose from class_split"]),
    # a kind or a target no task has is refused as one its pipeline or task cannot serve
    ("enum", {"pipeline": "transfer", "task": {"kind": "foo"}},
     ["task/kind: task kind 'foo' does not apply to the transfer pipeline; "
      "choose from shift, class_split"]),
    ("enum", {"pipeline": "transfer", "target": "foo"},
     ["target: target 'foo' does not apply to a 'shift' task; choose from same, ood_sample"]),
    # the choices are checked one at a time, and the first refusal ends the run
    ("enum", {"pipeline": "ood", "ood": {"algorithm": "irm", "tune_mode": "test"}},
     ["ood/algorithm: 'irm' is not one of ['erm', 'vrex']"]),
    # a choice is a string: an object is no config section, nor an array a choice
    ("type", {"pipeline": ["verify"]}, ["pipeline: ['verify'] is not of type 'string'"]),
    ("type", {"pipeline": "transfer", "target": ["same"], "task": {"kind": {}},
              "distill": {"mode": None}, "train": {"schedule": {"kind": {}}}},
     ["distill/mode: None is not of type 'string'", "target: ['same'] is not of type 'string'",
      "task/kind: {} is not of type 'string'", "train/schedule/kind: {} is not of type 'string'"]),
    ("type", {"pipeline": "fewshot", "fewshot": {"classifier": {}}},
     ["fewshot/classifier: {} is not of type 'string'"]),
    ("type", {"pipeline": "ood", "ood": {"algorithm": {}, "init": ["cat"], "tune_mode": 1}},
     ["ood/algorithm: {} is not of type 'string'", "ood/init: ['cat'] is not of type 'string'",
      "ood/tune_mode: 1 is not of type 'string'"]),
    # the seeds a run derives are fields of the config dataclasses, and no key sets them
    ("additionalProperties", {"pipeline": "transfer", "seeds": [1]},
     ["<root>: Additional properties are not allowed ('seeds' was unexpected)"]),
    ("additionalProperties", {"pipeline": "transfer", "train": {"seed": 1}},
     ["train: Additional properties are not allowed ('seed' was unexpected)"]),
    ("additionalProperties", {"pipeline": "fewshot", "fewshot": {"seeds": [1]}},
     ["fewshot: Additional properties are not allowed ('seeds' was unexpected)"]),
    ("additionalProperties", {"pipeline": "ood", "ood": {"seeds": [1]}},
     ["ood: Additional properties are not allowed ('seeds' was unexpected)"]),
    # an integer no float64 holds is no number, as NaN and infinity are not
    ("type", {"pipeline": "transfer", "train": {"lr": 10**400}},
     [f"train/lr: {10**400} is not of type 'number'"]),
    ("type", {"pipeline": "transfer", "task": {"core_scale": -10**400}},
     [f"task/core_scale: {-10**400} is not of type 'number'"]),
    ("type", {"pipeline": "ood", "ood": {"beta_grid": [10**400]}},
     [f"ood/beta_grid/0: {10**400} is not of type 'number'"]),
]


@pytest.mark.parametrize("config,want", [
    pytest.param(config, want, id=f"{keyword}-{i}")
    for i, (keyword, config, want) in enumerate(SCHEMA_CASES)])
def test_run_reports_every_schema_error_sorted_by_path(tmp_path, capsys, config, want):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.cmd_run(str(path), out=str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == "".join(f"config error: field {line}\n" for line in want)
    assert not (tmp_path / "out").exists()


def test_an_integral_float_and_a_bool_are_not_integers():
    schema = cli.load_schema()
    assert cli.schema_errors({"pipeline": "verify", "n_seeds": 1, "schema_version": 1},
                             schema) == []
    assert cli.schema_errors({"pipeline": "verify", "n_seeds": 1.0, "schema_version": 1.0},
                             schema) == [(("schema_version",), "1.0 is not of type 'integer'"),
                                         (("n_seeds",), "1.0 is not of type 'integer'")]
    assert cli.schema_errors({"pipeline": "verify", "n_seeds": 1.5}, schema) == [
        (("n_seeds",), "1.5 is not of type 'integer'")]
    assert cli.schema_errors({"pipeline": "verify", "n_seeds": False}, schema) == [
        (("n_seeds",), "False is not of type 'integer'")]


def test_run_refuses_an_integral_float_count(tmp_path, capsys):
    cfg = write_config(tmp_path, **dict(FAST_TRANSFER, n_seeds=2.0))
    assert cli.cmd_run(cfg, out=str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (
        "config error: field n_seeds: 2.0 is not of type 'integer'\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("pipeline,path,value", [
    ("transfer", ("task", "core_scale"), float("nan")),
    ("transfer", ("stage2_lr",), float("inf")),
    ("transfer", ("distill", "tau"), float("inf")),
    ("transfer", ("train", "schedule", "factor"), float("nan")),
    ("fewshot", ("fewshot", "snapshot_lr_mult"), float("inf")),
    ("ood", ("ood", "beta_grid", 1), float("-inf")),
], ids=lambda v: "/".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_run_refuses_a_non_finite_number_before_any_work(tmp_path, capsys, pipeline, path,
                                                         value):
    config = {"pipeline": pipeline, "task": {}, "train": {"schedule": {}}, "distill": {},
              "fewshot": {}, "ood": {"beta_grid": [1.0, 2.0]}}
    *parents, last = path
    node = config
    for key in parents:
        node = node[key]
    node[last] = value
    assert cli.cmd_run(write_config(tmp_path, **config), out=str(tmp_path / "out")) == 2
    field = "/".join(map(str, path))
    assert capsys.readouterr().err == (
        f"config error: field {field}: {value!r} is not of type 'number'\n")
    assert not (tmp_path / "out").exists()


def _object_keys(schema) -> dict:
    """The keys of an object of ``schema``, a dict or a config dataclass; {} for a leaf."""
    if is_dataclass(schema):
        return cli._keys(schema)
    return schema if isinstance(schema, dict) else {}


def _leaf_types(schema) -> set:
    """The type of each leaf key of ``schema``, a structure of ``cli.load_schema()``."""
    if _object_keys(schema):
        return set().union(*map(_leaf_types, _object_keys(schema).values()))
    return _leaf_types(get_args(schema)[0]) if get_origin(schema) is tuple else {schema}


def test_every_schema_keyword_is_implemented_and_has_a_case():
    # the rules the walker applies, each named by the jsonschema keyword whose
    # words it prints, and the leaf types it knows; a config field of any other
    # type fails here until the walker has it
    assert {rule for rule, _, _ in SCHEMA_CASES} - BOUNDS - CHOICES == {
        "type", "required", "properties", "additionalProperties", "items"}
    assert _leaf_types(cli.load_schema()) == {int, float, str, bool}


def test_start_up_loads_no_third_party_package_but_numpy():
    # diffed against a bare interpreter, so what the site hooks load does not count
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))

    def loaded(code):
        out = subprocess.run(
            [sys.executable, "-c", f"{code}; import sys; print(*sorted(sys.modules))"],
            env=env, capture_output=True, text=True, check=True).stdout
        return set(out.split())

    added = (loaded("from richlab import cli; cli.load_schema()") - loaded("pass"))
    tops = {name.partition(".")[0] for name in added}
    assert tops - set(sys.stdlib_module_names) - {"richlab"} == {"numpy"}
    # hashlib would load _hashlib, which maps OpenSSL's libcrypto
    assert "_hashlib" not in added


@pytest.mark.parametrize("config", ["fewshot", "transfer-catsub"])
def test_a_run_imports_neither_numpy_ma_nor_hashlib(tmp_path, config):
    # numpy imports numpy.ma lazily, and np.unique without a return_* argument
    # asks it whether its input is masked; hashlib loads OpenSSL's libcrypto.
    # Either import adds to every run's time and memory.  catsub reuses the
    # per-leg probes, so the transfer run computes ProbeCache keys.
    import os
    import subprocess
    import sys
    from pathlib import Path

    from test_pipeline_bytes import FEWSHOT

    configs = {"fewshot": FEWSHOT,
               "transfer-catsub": dict(FAST_TRANSFER, n_seeds=1, methods=["erm", "catsub"])}
    cfg = write_config(tmp_path, **configs[config])
    code = ("import sys; from richlab import cli; "
            f"rc = cli.main(['run', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]); "
            "print(rc, 'numpy.ma' in sys.modules, '_hashlib' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ,
                                              PYTHONPATH=str(Path(cli.__file__).parents[1])))
    assert out.stdout.splitlines()[-1] == "0 False False"  # after the run's own lines


def test_python_m_richlab_runs_the_command_line_without_a_warning(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    csv = tmp_path / "results.csv"
    write_records_csv([RunRecord("r", 1, "erm", "t", "id_test", "accuracy", 0.5)], csv)
    out = subprocess.run([sys.executable, "-m", "richlab", "report", str(csv)],
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])))
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.startswith("## task: t\n")


def test_run_transfer_pipeline_writes_outputs(tmp_path):
    cfg = write_config(tmp_path, output_dir=str(tmp_path / "out"), **FAST_TRANSFER)
    assert cli.cmd_run(cfg) == 0
    results = tmp_path / "out" / "results.csv"
    manifest = tmp_path / "out" / "manifest.json"
    assert results.exists() and manifest.exists()
    text = results.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    meta = json.loads(manifest.read_text())
    assert meta["pipeline"] == "transfer"
    assert meta["version"].startswith("richlab-")
    assert len(meta["config_hash"]) == 64


def test_manifest_config_hash_is_hashlib_sha256_of_the_sorted_config(tmp_path):
    import hashlib

    cfg = dict(FAST_TRANSFER, n_seeds=1, output_dir=str(tmp_path / "out"))
    assert cli.cmd_run(write_config(tmp_path, **cfg)) == 0
    meta = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert meta["config_hash"] == hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def test_a_diverging_stage_2_fine_tune_names_its_seed(tmp_path, capsys):
    from richlab.rng import derive_seed

    cfg = write_config(tmp_path, **dict(FAST_TRANSFER, methods=["cat", "2ft"], stage2_lr=1e308,
                                        stage2_epochs=20))
    assert cli.cmd_run(cfg, out=str(tmp_path / "out")) == 3
    # the first seed's stage 2 diverges; its ft seed is derive_seed(s, 800)
    run_seed = cli.RunConfig(master_seed=5, n_seeds=2).seeds[0]
    seed = derive_seed(derive_seed(run_seed, 800), 3)
    assert capsys.readouterr().err == (
        f"runtime error: 2ft with seed {run_seed}: stage-2 fine-tune with seed {seed} diverged: "
        "training diverged at epoch 0: non-finite gradient in parameter 0\n")


@pytest.mark.parametrize("methods,named", [
    (["erm", "cat"], "erm"),
    # the episode bank is built once, and named by the first method that needs it
    (["cat", "2ft"], "cat"),
    (["catsub"], "catsub"),
])
def test_a_diverging_bank_names_its_method_and_run_seed(tmp_path, capsys, methods, named):
    cfg = write_config(tmp_path, **dict(FAST_TRANSFER, methods=methods,
                                        train=dict(FAST_TRANSFER["train"], lr=1e300)))
    assert cli.cmd_run(cfg, out=str(tmp_path / "out")) == 3
    run_seed = cli.RunConfig(master_seed=5, n_seeds=2).seeds[0]
    # the stacked episodes all diverge in epoch 0; the stack names the first, member 0
    assert capsys.readouterr().err == (
        f"runtime error: {named} with seed {run_seed}: episode bank diverged: training "
        "diverged at epoch 0: non-finite gradient in parameter 0, member 0\n")


@pytest.mark.parametrize("field,value", [("grad_tol", float("inf")), ("l2", float("nan"))])
def test_run_rejects_non_finite_probe_config(tmp_path, capsys, field, value):
    # Python's json reads NaN and Infinity, and the schema's number type refuses both
    config = dict(FAST_TRANSFER, probe={field: value}, output_dir=str(tmp_path / "out"))
    assert cli.cmd_run(write_config(tmp_path, **config)) == 2
    assert capsys.readouterr().err == (
        f"config error: field probe/{field}: {value!r} is not of type 'number'\n")
    assert not (tmp_path / "out" / "results.csv").exists()


@pytest.mark.parametrize("pipeline,section,field,value", [
    ("transfer", "train", "lr", float("nan")),
    ("fewshot", "train", "lr", float("nan")),
    ("ood", "ood", "holdout_frac", float("nan")),
])
def test_run_reports_a_rejected_config_value_as_a_config_error(tmp_path, capsys, pipeline,
                                                              section, field, value):
    cfg = write_config(tmp_path, **dict(FAST_TRANSFER, pipeline=pipeline,
                                        **{section: {field: value}},
                                        output_dir=str(tmp_path / "out")))
    assert cli.cmd_run(cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and field in err
    assert not (tmp_path / "out" / "results.csv").exists()


@pytest.mark.parametrize("pipeline,methods,bad", [
    ("transfer", ["cta"], "'cta'"),
    ("transfer", ["erm", "snaps"], "'snaps'"),
    ("fewshot", ["joint", "catsub"], "'joint', 'catsub'"),
    ("fewshot", ["cat", "erm "], "'erm '"),
])
def test_run_rejects_a_method_its_pipeline_does_not_build(tmp_path, capsys, pipeline, methods,
                                                          bad):
    cfg = write_config(tmp_path, **dict(FAST_TRANSFER, pipeline=pipeline, methods=methods,
                                        output_dir=str(tmp_path / "out")))
    assert cli.cmd_run(cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and bad in err
    assert not (tmp_path / "out" / "results.csv").exists()


@pytest.mark.parametrize("pipeline,kind,target", [
    pytest.param("transfer", "shift", "novel", id="shift-novel"),
    pytest.param("transfer", "class_split", "ood_sample", id="class_split-ood_sample"),
    pytest.param("fewshot", "shift", None, id="fewshot-shift"),
    pytest.param("ood", "class_split", None, id="ood-class_split"),
])
def test_run_rejects_a_target_its_task_kind_cannot_serve(tmp_path, capsys, pipeline, kind,
                                                          target):
    # a pipeline that cannot serve the task kind is refused the same way
    cfg = dict(FAST_TRANSFER, pipeline=pipeline, task=dict(FAST_TRANSFER["task"], kind=kind),
               output_dir=str(tmp_path / "out"))
    if target is not None:
        cfg["target"] = target
    assert cli.cmd_run(write_config(tmp_path, **cfg)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and repr(kind) in err
    assert (repr(target) if target else f"the {pipeline} pipeline") in err
    assert not (tmp_path / "out" / "results.csv").exists()


def test_run_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, output_dir=str(tmp_path / "a"), **FAST_TRANSFER)
    assert cli.cmd_run(cfg) == 0
    first = (tmp_path / "a" / "results.csv").read_bytes()
    assert cli.cmd_run(cfg, out=str(tmp_path / "b")) == 0
    second = (tmp_path / "b" / "results.csv").read_bytes()
    assert first == second


def test_run_seed_override_changes_results(tmp_path):
    cfg = write_config(tmp_path, output_dir=str(tmp_path / "a"), **FAST_TRANSFER)
    cli.cmd_run(cfg)
    cli.cmd_run(cfg, seed=99, out=str(tmp_path / "c"))
    a = (tmp_path / "a" / "results.csv").read_bytes()
    c = (tmp_path / "c" / "results.csv").read_bytes()
    assert a != c


@pytest.mark.parametrize("flags,field,message", [
    (["--seed", "-3"], "master_seed", "-3 is less than the minimum of 0"),
    (["--out", ""], "output_dir", "'' should be non-empty"),
])
def test_run_checks_the_command_line_overrides_against_the_schema(tmp_path, capsys,
                                                                  monkeypatch, flags, field,
                                                                  message):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, **FAST_TRANSFER)
    assert cli.main(["run", cfg, *flags]) == 2
    assert capsys.readouterr().err == f"config error: field {field}: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("config,flags", [
    ({"master_seed": 2**64}, []), ({}, ["--seed", str(2**64)]),
    # the config's own value is checked before the command line overrides it
    ({"master_seed": 2**64}, ["--seed", "0"]),
], ids=["config", "flag", "overridden"])
def test_run_refuses_a_master_seed_the_seed_streams_would_alias(tmp_path, capsys, monkeypatch,
                                                                config, flags):
    # SplitMix64 and derive_seed reduce a seed mod 2**64, so 2**64 would run as 0
    _refuse_work(monkeypatch)
    cfg = write_config(tmp_path, **dict(FAST_TRANSFER, **config))
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out"), *flags]) == 2
    assert capsys.readouterr().err == (
        f"config error: field master_seed: {2**64} is greater than or equal to the maximum "
        f"of {2**64}\n")
    assert not (tmp_path / "out").exists()
    assert cli.RunConfig(master_seed=2**64 - 1).master_seed == 2**64 - 1


@pytest.mark.parametrize("seed,message", [
    (-1, "-1 is less than the minimum of 0"),
    (2**64, f"{2**64} is greater than or equal to the maximum of {2**64}"),
], ids=["-1", "2**64"])
def test_verify_refuses_a_seed_outside_the_seed_streams(capsys, monkeypatch, seed, message):
    # --seed -1 printed the bytes of 2**64 - 1, and --seed 2**64 those of 0
    monkeypatch.setattr(cli.verify_mod, "run_all", lambda seed: pytest.fail("suites ran"))
    assert cli.main(["verify", "--seed", str(seed)]) == 2
    assert capsys.readouterr() == ("", f"config error: field master_seed: {message}\n")


def test_a_verify_manifest_lists_no_seed_groups(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.verify_mod, "run_all", lambda seed: [])
    cfg = write_config(tmp_path, pipeline="verify", master_seed=7)
    assert cli.cmd_run(cfg, out=str(tmp_path / "out")) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert (manifest["master_seed"], manifest["seeds"]) == (7, [])


# a value of each config section that its dataclass refuses, after a valid
# schema check, as "path: message"
BOUND_CASES = [
    ({"master_seed": -1}, "master_seed: -1 is less than the minimum of 0"),
    ({"hidden": [4, 0]}, "hidden/1: 0 is less than the minimum of 1"),
    ({"train": {"lr": 0}}, "train/lr: 0 is less than or equal to the minimum of 0"),
    ({"train": {"momentum": 1.0}},
     "train/momentum: 1.0 is greater than or equal to the maximum of 1"),
    ({"train": {"schedule": {"every": 0}}},
     "train/schedule/every: 0 is less than the minimum of 1"),
    ({"distill_train": {"epochs": -1}}, "distill_train/epochs: -1 is less than the minimum of 0"),
    ({"distill": {"alpha": 1.5}}, "distill/alpha: 1.5 is greater than the maximum of 1"),
    ({"task": {"env_correlations": []}}, "task/env_correlations: [] should be non-empty"),
    ({"task": {"env_correlations": [0.9, 1.5]}},
     "task/env_correlations/1: 1.5 is greater than the maximum of 1"),
    ({"task": {"d_core": 2}},
     "task/d_core: a block needs one prototype dimension per class, got 2 for 3 classes"),
    # sizes and scales no run can meet: numpy refused the arrays with a traceback,
    # the draws overflowed to inf, or the episodes ran for hours
    ({"task": {"n_per_env": 10**20}},
     f"task/n_per_env: {10**20} is greater than the maximum of 1000000"),
    ({"task": {"n_per_env": 10**10}},
     f"task/n_per_env: {10**10} is greater than the maximum of 1000000"),
    ({"target": "ood_sample", "target_rows": 10**20},
     f"target_rows: {10**20} is greater than the maximum of 1000000"),
    ({"pipeline": "fewshot", "hidden": [10**20]},
     f"hidden/0: {10**20} is greater than the maximum of 10000"),
    ({"task": {"noise_std": 1e308}},
     "task/noise_std: 1e+308 is greater than the maximum of 1000000"),
    ({"pipeline": "fewshot", "task": {"kind": "class_split", "noise_std": 1e308}},
     "task/noise_std: 1e+308 is greater than the maximum of 1000000"),
    ({"pipeline": "fewshot", "fewshot": {"n_episodes_eval": 10**20}},
     f"fewshot/n_episodes_eval: {10**20} is greater than the maximum of 100000"),
    # loop counts that kept a one-seed run going past any timeout
    ({"n_seeds": 1, "methods": ["erm"], "task": {"n_per_env": 30}, "train": {"epochs": 10**12}},
     f"train/epochs: {10**12} is greater than the maximum of 10000"),
    ({"n_seeds": 1, "methods": ["erm"], "task": {"n_per_env": 30}, "train": {"epochs": 1},
      "probe": {"max_iters": 10**12, "grad_tol": 1e-300}},
     f"probe/max_iters: {10**12} is greater than the maximum of 1000000"),
    ({"pipeline": "ood", "n_seeds": 1, "task": {"n_per_env": 30}, "ood": {"steps": 10**12}},
     f"ood/steps: {10**12} is greater than the maximum of 100000"),
    ({"stage2_epochs": 10**12}, f"stage2_epochs: {10**12} is greater than the maximum of 10000"),
]


@pytest.mark.parametrize("config,line", BOUND_CASES, ids=[line.partition(":")[0]
                                                          for _, line in BOUND_CASES])
def test_run_refuses_a_value_its_dataclass_bounds_before_any_work(tmp_path, capsys,
                                                                   monkeypatch, config, line):
    _refuse_work(monkeypatch)
    cfg = dict(FAST_TRANSFER, **config)
    if "task" in config:
        cfg["task"] = dict(FAST_TRANSFER["task"], **config["task"])
    assert cli.cmd_run(write_config(tmp_path, **cfg), out=str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"config error: field {line}\n"
    assert not (tmp_path / "out").exists()


# each value the config dataclasses accepted while the schema held their
# bounds, and the refusal they now raise
DATACLASS_CASES = [
    ("RunConfig", {"master_seed": -1}, "master_seed: -1 is less than the minimum of 0"),
    ("RunConfig", {"n_seeds": 0}, "n_seeds: 0 is less than the minimum of 1"),
    ("RunConfig", {"n_seeds": 51}, "n_seeds: 51 is greater than the maximum of 50"),
    ("RunConfig", {"output_dir": ""}, "output_dir: '' should be non-empty"),
    ("TransferConfig", {"n_episodes": 51}, "n_episodes: 51 is greater than the maximum of 50"),
    ("TransferConfig", {"methods": ()}, "methods: [] should be non-empty"),
    ("TransferConfig", {"hidden": ()}, "hidden: [] should be non-empty"),
    ("TransferConfig", {"hidden": (0,)}, "hidden/0: 0 is less than the minimum of 1"),
    ("TransferConfig", {"target_rows": 9}, "target_rows: 9 is less than the minimum of 10"),
    ("TransferConfig", {"stage2_epochs": -1}, "stage2_epochs: -1 is less than the minimum of 0"),
    ("TransferConfig", {"stage2_lr": 0}, "stage2_lr: 0 is less than or equal to the minimum of 0"),
    ("Schedule", {"kind": "step", "factor": 0.0, "every": 2},
     "factor: 0.0 is less than or equal to the minimum of 0"),
    ("Schedule", {"kind": "cosine", "every": 0}, "every: 0 is less than the minimum of 1"),
    ("FewshotConfig", {"n_snapshots": 0}, "n_snapshots: 0 is less than the minimum of 1"),
    ("FewshotConfig", {"snapshot_lr_mult": 0},
     "snapshot_lr_mult: 0 is less than or equal to the minimum of 0"),
    ("OodConfig", {"algorithm": "vrex", "beta_grid": (0.0,)},
     "beta_grid/0: 0.0 is less than or equal to the minimum of 0"),
    ("OodConfig", {"lr_grid": (0.0,)}, "lr_grid/0: 0.0 is less than or equal to the minimum of 0"),
    ("OodConfig", {"wd_grid": (-1.0,)}, "wd_grid/0: -1.0 is less than the minimum of 0"),
    ("OodConfig", {"steps": 0}, "steps: 0 is less than the minimum of 1"),
    ("OodConfig", {"hidden": ()}, "hidden: [] should be non-empty"),
    ("DistillSpec", {"student_arch": (0,)}, "student_arch/0: 0 is less than the minimum of 1"),
]


@pytest.mark.parametrize("make,kwargs,message", DATACLASS_CASES, ids=[
    f"{make}-{message.partition(':')[0]}={message.split()[1]}"
    for make, _, message in DATACLASS_CASES])
def test_the_config_dataclasses_refuse_what_the_schema_refused(make, kwargs, message):
    from richlab import core_nn, experiments, richrep

    make = next(getattr(m, make) for m in (cli, experiments, core_nn, richrep)
                if hasattr(m, make))
    with pytest.raises(cli.ParameterError) as info:
        make(**kwargs)
    assert str(info.value) == message
    assert info.value.field == tuple(int(p) if p.isdigit() else p
                                     for p in message.partition(":")[0].split("/"))


# the upper bound of each size or scale, far above desk scale: (dataclass, field, bound)
UPPER_BOUNDS = [
    *[("ShiftSpec", name, 10**4) for name in ("d_core", "d_spur", "d_noise")],
    *[("ShiftSpec", name, 10**6) for name in ("core_scale", "spur_scale", "noise_std")],
    ("ShiftSpec", "n_per_env", 10**6),
    ("TransferConfig", "target_rows", 10**6),
    ("FewshotConfig", "n_episodes_eval", 10**5),
    *[(make, "hidden", 10**4) for make in ("TransferConfig", "FewshotConfig", "OodConfig")],
    ("DistillSpec", "student_arch", 10**4),
    # loop counts, far above the 200 epochs, 300 steps and 5,000 probe iterations in use
    ("TrainConfig", "epochs", 10**4),
    ("TransferConfig", "stage2_epochs", 10**4),
    ("OodConfig", "steps", 10**5),
    ("ProbeConfig", "max_iters", 10**6),
]


@pytest.mark.parametrize("make,name,bound", UPPER_BOUNDS,
                         ids=[f"{make}-{name}" for make, name, _ in UPPER_BOUNDS])
def test_the_config_dataclasses_take_each_upper_bound_and_refuse_one_more(make, name, bound):
    from dataclasses import replace

    from richlab import experiments, richrep

    made = {"ShiftSpec": experiments.default_shift_spec, "TrainConfig":
            lambda: experiments.TransferConfig().train}  # TrainConfig has no defaults
    default = made.get(make, next(getattr(m, make) for m in (experiments, richrep)
                                  if hasattr(m, make)))()
    wrap = tuple if isinstance(getattr(default, name), tuple) else lambda v: v[0]
    assert getattr(replace(default, **{name: wrap([bound])}), name) == wrap([bound])
    with pytest.raises(cli.ParameterError) as info:
        replace(default, **{name: wrap([bound + 1])})
    field = (name, 0) if wrap is tuple else (name,)
    assert (info.value.field, info.value.message) == (
        field, f"{bound + 1!r} is greater than the maximum of {bound!r}")


@pytest.mark.parametrize("case", ["transfer-novel", "fewshot-linear"])
def test_a_failing_task_draw_is_one_runtime_error_line(tmp_path, capsys, monkeypatch, case):
    # both builders draw their task while the config is checked
    from richlab import experiments
    from richlab.errors import DataError
    from test_pipeline_bytes import CASES

    def draw(*args):
        raise DataError("X contains non-finite entries")

    monkeypatch.setattr(experiments, "gen_shift", draw)
    monkeypatch.setattr(cli, "gen_shift", draw)
    _refuse_work(monkeypatch)
    cfg = write_config(tmp_path, **dict(CASES[case], output_dir=str(tmp_path / "out")))
    assert cli.cmd_run(cfg) == 3
    assert capsys.readouterr().err == "runtime error: X contains non-finite entries\n"
    assert not (tmp_path / "out").exists()


# numpy's allocation failure, _ArrayMemoryError, is a MemoryError
ALLOC_ERROR = "Unable to allocate 74.6 GiB for an array with shape (1000000, 10010)"


def _out_of_memory(*args, **kwargs):
    raise MemoryError(ALLOC_ERROR)


def test_an_allocation_failure_in_a_builder_is_one_runtime_error_line(tmp_path, capsys,
                                                                     monkeypatch):
    from richlab import experiments

    monkeypatch.setattr(experiments, "gen_shift", _out_of_memory)
    _refuse_work(monkeypatch)
    assert cli.cmd_run(write_config(tmp_path, **FAST_TRANSFER), out=str(tmp_path / "out")) == 3
    assert capsys.readouterr().err == f"runtime error: {ALLOC_ERROR}\n"
    assert not (tmp_path / "out").exists()


def test_an_allocation_failure_in_a_run_is_one_runtime_error_line(tmp_path, capsys,
                                                                 monkeypatch):
    monkeypatch.setattr(cli, "run_transfer", _out_of_memory)
    assert cli.cmd_run(write_config(tmp_path, **FAST_TRANSFER), out=str(tmp_path / "out")) == 3
    assert capsys.readouterr() == ("", f"runtime error: {ALLOC_ERROR}\n")
    assert not (tmp_path / "out" / "results.csv").exists()


def test_the_readme_config_examples_pass_every_config_check(tmp_path, capsys, monkeypatch):
    # a bound moved out of the schema must not leave the documented examples invalid
    import re
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.partition("## Command line")[2].partition("\n## ")[0]
    examples = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", section, re.S)]
    assert [example["pipeline"] for example in examples] == ["verify", "transfer"]
    seen = []
    for runner in ("run_transfer", "run_fewshot", "run_ood"):
        monkeypatch.setattr(cli, runner, lambda *args, runner=runner, **kw: seen.append(runner)
                            or [])
    monkeypatch.setattr(cli.verify_mod, "run_all", lambda seed: seen.append("verify") or [])
    monkeypatch.chdir(tmp_path)
    for example in examples:
        assert cli.cmd_run(write_config(tmp_path, **example)) == 0, capsys.readouterr().err
    assert seen == ["verify", "run_transfer"]
    assert (tmp_path / example["output_dir"] / "results.csv").exists()


def record_work(monkeypatch, calls: list, run: bool = False):
    """Make each pipeline runner append its name to ``calls``, then run the
    real runner if ``run``, or fail the test."""
    for runner in ("run_transfer", "run_fewshot", "run_ood", "run_suites"):
        def work(*args, runner=runner, real=getattr(cli, runner), **kwargs):
            calls.append(runner)
            if not run:
                raise AssertionError("the pipeline ran")
            return real(*args, **kwargs)
        monkeypatch.setattr(cli, runner, work)


def _refuse_work(monkeypatch):
    record_work(monkeypatch, [])


def test_run_refuses_one_evaluation_episode_before_any_work(tmp_path, capsys, monkeypatch):
    # the reported std is the ddof=1 std over the evaluation episodes
    from test_pipeline_bytes import FEWSHOT

    _refuse_work(monkeypatch)
    cfg = dict(FEWSHOT, fewshot=dict(FEWSHOT["fewshot"], n_episodes_eval=1))
    assert cli.cmd_run(write_config(tmp_path, **cfg), out=str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (
        "config error: field fewshot/n_episodes_eval: 1 is less than the minimum of 2\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("methods", [["erm", "cat-s"], ["snaps"]], ids="+".join)
def test_run_refuses_snapshots_of_a_zero_epoch_run_before_any_work(tmp_path, capsys,
                                                                   monkeypatch, methods):
    from test_pipeline_bytes import FEWSHOT

    _refuse_work(monkeypatch)
    cfg = dict(FEWSHOT, methods=methods, train=dict(FEWSHOT["train"], epochs=0))
    assert cli.cmd_run(write_config(tmp_path, **cfg), out=str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (
        "config error: field train/epochs: snapshot methods (cat-s, snaps) need train.epochs "
        "of at least 1, got 0\n")
    assert not (tmp_path / "out").exists()
    # without a snapshot method, zero epochs is a valid (untrained) run
    monkeypatch.undo()
    cfg = dict(cfg, methods=["erm", "cat"])
    assert cli.cmd_run(write_config(tmp_path, **cfg), out=str(tmp_path / "out")) == 0


def test_run_refuses_more_snapshots_than_epochs_before_any_work(tmp_path, capsys,
                                                               monkeypatch):
    # the schedule has at most one snapshot per epoch: 5 of 3 epochs would
    # silently report cat3-s
    from test_pipeline_bytes import FEWSHOT

    _refuse_work(monkeypatch)
    cfg = dict(FEWSHOT, fewshot=dict(FEWSHOT["fewshot"], n_snapshots=5))
    assert cli.cmd_run(write_config(tmp_path, **cfg), out=str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (
        "config error: field fewshot/n_snapshots: snapshot methods (cat-s, snaps) need "
        "n_snapshots of at most train.epochs, got n_snapshots 5 and train.epochs 3\n")
    assert not (tmp_path / "out").exists()


def test_run_refuses_a_bank_whose_episode_shares_the_snapshot_seed(tmp_path, capsys,
                                                                   monkeypatch):
    # the snapshot run trains from derive_seed(seed, 42), the seed of a bank's
    # episode 42: with 43 episodes the two would start from one init and order
    from test_pipeline_bytes import FEWSHOT

    _refuse_work(monkeypatch)
    cfg = dict(FEWSHOT, n_episodes=43, methods=["cat", "cat-s"])
    assert cli.cmd_run(write_config(tmp_path, **cfg), out=str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (
        "config error: field n_episodes: snapshot methods (cat-s, snaps) need n_episodes of "
        "at most 42 beside cat, got 43\n")
    assert not (tmp_path / "out").exists()
    # without an episode bank, or with 42 episodes, the run goes ahead
    monkeypatch.undo()
    for n_episodes, methods in ((43, ["cat-s"]), (42, ["cat", "cat-s"])):
        cfg = dict(cfg, n_episodes=n_episodes, methods=methods)
        assert cli.cmd_run(write_config(tmp_path, **cfg), out=str(tmp_path / "out")) == 0


def _pinned(name: str) -> dict:
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads" / f"{name}.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("grid,values,message", [
    ("lr_grid", [0.01, 0.01], "lr_grid value 0.01 prints as '0.01'"),
    ("beta_grid", [1.0, 1.0000001], "beta_grid value 1.0000001 prints as '1'"),
])
def test_run_refuses_an_ood_grid_with_a_repeated_value_before_any_work(
        tmp_path, capsys, monkeypatch, grid, values, message):
    # two candidates would share a config id, and so a results row
    _refuse_work(monkeypatch)
    cfg = _pinned("ood-vrex")
    cfg["ood"][grid] = values
    assert cli.cmd_run(write_config(tmp_path, **cfg), out=str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (
        f"config error: field ood/{grid}/1: {message} in config ids, as an earlier value does\n")
    assert not (tmp_path / "out").exists()


def test_run_refuses_an_iid_hold_out_of_every_training_row_before_any_work(
        tmp_path, capsys, monkeypatch):
    # 3 environments of 300 rows: 0.9995 of 900 rounds to 900
    cfg = _pinned("ood-vrex")
    cfg["ood"]["holdout_frac"] = 0.9995
    _refuse_work(monkeypatch)
    assert cli.cmd_run(write_config(tmp_path, **cfg), out=str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (
        "config error: field ood/holdout_frac: 0.9995 holds out all 900 pooled training "
        "rows and leaves none to train on\n")
    assert not (tmp_path / "out").exists()
    # one row left to train on is a run; so is any fraction when tuning on the tune env
    for frac, mode in ((0.9994, "iid"), (0.9999, "ood")):
        cfg["ood"].update(holdout_frac=frac, tune_mode=mode)
        cli._ood_pipeline(cfg, cli.RunConfig(), set())
    assert cli.OodConfig(holdout_frac=0.9994).n_hold(900) == 899


@pytest.mark.parametrize("top,ood,unread", [
    ({}, {"algorithm": "erm"}, ["ood/beta_grid"]),
    ({}, {"tune_mode": "ood"}, ["ood/holdout_frac"]),
    # cat's bank reads hidden, n_episodes and train, and no distill_train
    ({"n_episodes": 2, "train": {"epochs": 2}, "distill_train": {"epochs": 2}},
     {"init": "cat"}, ["distill_train"]),
    ({"distill_train": {"epochs": 2}},
     {"algorithm": "erm", "tune_mode": "ood", "init": "cat"},
     ["distill_train", "ood/beta_grid", "ood/holdout_frac"]),
])
def test_run_refuses_an_ood_setting_its_run_does_not_read_before_any_work(
        tmp_path, capsys, monkeypatch, top, ood, unread):
    # the pinned config (vrex, iid, scratch) reads every key it sets
    _refuse_work(monkeypatch)
    cfg = _pinned("ood-vrex")
    cfg = dict(cfg, **top, ood=dict(cfg["ood"], **ood))
    assert cli.cmd_run(write_config(tmp_path, **cfg), out=str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == "".join(
        f"config error: field {key}: the ood pipeline does not read this key\n"
        for key in unread)
    assert not (tmp_path / "out").exists()
    # the same keys are read where the run uses them: beta_grid under vrex,
    # holdout_frac under iid tuning, distill_train by a distill bank
    read = {("schema_version",), ("pipeline",)}
    cli._merged(cli.RunConfig(), cfg, read)
    cfg["ood"].update(algorithm="vrex", tune_mode="iid", init="distill")
    cli._ood_pipeline(cfg, cli.RunConfig(), read)
    assert cli._unread(cfg, read) == []


# a path the OS cannot take, as the config's JSON sets it, and the reason mkdir gives
UNUSABLE_DIRS = {"a\x00b": "embedded null byte",
                 "\ud800": "'utf-8' codec can't encode character '\\ud800' in position 0: "
                           "surrogates not allowed"}


@pytest.mark.parametrize("pinned", ["verify", "fewshot"])
@pytest.mark.parametrize("sub", ["", "sub", *UNUSABLE_DIRS])
def test_run_refuses_an_output_dir_that_cannot_be_a_directory_before_any_work(
        tmp_path, capsys, monkeypatch, pinned, sub):
    _refuse_work(monkeypatch)
    if sub in UNUSABLE_DIRS:
        cfg = dict(_pinned(pinned), output_dir=sub)
        assert cli.cmd_run(write_config(tmp_path, **cfg)) == 2
        assert capsys.readouterr().err == (
            f"config error: field output_dir: {UNUSABLE_DIRS[sub]}\n")
        return
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / sub if sub else blocker
    assert cli.cmd_run(write_config(tmp_path, **_pinned(pinned)), out=str(out)) == 2
    reason = "Not a directory" if sub else "File exists"
    err = capsys.readouterr().err
    assert err.startswith("config error: field output_dir: [Errno ")
    assert err.endswith(f"] {reason}: {str(out)!r}\n") and err.count("\n") == 1
    assert blocker.read_text() == ""


def test_run_refuses_more_ways_than_novel_classes_before_any_work(tmp_path, capsys,
                                                                  monkeypatch):
    # a 10-class split leaves 10 - 10 // 2 = 5 novel classes to draw episodes from
    _refuse_work(monkeypatch)
    cfg = _pinned("fewshot")
    cfg["fewshot"]["n_way"] = 6
    assert cli.cmd_run(write_config(tmp_path, **cfg), out=str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (
        "config error: field fewshot/n_way: a 6-way episode needs 6 novel classes, "
        "a 10-class task has 5\n")
    assert not (tmp_path / "out").exists()
    cfg["fewshot"]["n_way"] = 5
    cli._fewshot_pipeline(cfg, cli.RunConfig(), set())


@pytest.mark.parametrize("pinned,methods,repeated", [
    ("transfer", ["erm", "cat", "erm"], "transfer method(s) 'erm'"),
    ("fewshot", ["snaps", "cat", "snaps", "cat"], "few-shot method(s) 'cat', 'snaps'"),
])
def test_run_refuses_a_repeated_method_before_any_work(tmp_path, capsys, monkeypatch,
                                                       pinned, methods, repeated):
    # a second naming would write nothing the first does not
    _refuse_work(monkeypatch)
    cfg = dict(_pinned(pinned), methods=methods)
    assert cli.cmd_run(write_config(tmp_path, **cfg), out=str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (
        f"config error: field methods: {repeated} named more than once\n")
    assert not (tmp_path / "out").exists()



def test_a_diverging_run_writes_one_line_to_stderr(tmp_path):
    # numpy's overflow and invalid-value warnings would come first, with
    # their source lines
    import os
    import subprocess
    import sys
    from pathlib import Path

    cfg = write_config(tmp_path, **dict(FAST_TRANSFER, train=dict(FAST_TRANSFER["train"],
                                                                  lr=1e300)))
    out = subprocess.run([sys.executable, "-m", "richlab", "run", cfg,
                          "--out", str(tmp_path / "out")], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])))
    assert out.returncode == 3
    assert out.stderr.count("\n") == 1
    assert out.stderr.startswith("runtime error: erm with seed ")


def test_run_refuses_a_novel_class_with_fewer_rows_than_an_episode_takes_before_any_work(
        tmp_path, capsys, monkeypatch):
    # 3 environments of 20 rows leave class 7 of the 10-class task 3 training
    # rows, and a 5-shot episode with 15 queries takes 20 rows of each class
    from richlab import experiments

    def train(*args, **kwargs):
        raise AssertionError("a bank was trained")

    _refuse_work(monkeypatch)
    monkeypatch.setattr(experiments, "train_episodes", train)
    cfg = _pinned("fewshot")
    cfg["task"]["n_per_env"] = 20
    assert cli.cmd_run(write_config(tmp_path, **cfg), out=str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (
        "config error: field fewshot/n_query: an episode takes 20 rows of each class "
        "(5 support, 15 query); class 7 of the 10-class task has 3 training rows\n")
    assert not (tmp_path / "out").exists()
    # an episode may take every row of the smallest class, and no more
    cfg["fewshot"].update(k_shot=1, n_query=2)
    cli._fewshot_pipeline(cfg, cli.RunConfig(), set())
    cfg["fewshot"]["n_query"] = 3
    with pytest.raises(cli.ParameterError, match="takes 4 rows .* class 7 .* has 3 training"):
        cli._fewshot_pipeline(cfg, cli.RunConfig(), set())


@pytest.mark.parametrize("pipeline", ["fewshot", "transfer"])
def test_run_refuses_a_class_split_with_an_empty_side_before_any_work(tmp_path, capsys,
                                                                      monkeypatch, pipeline):
    # one row per environment: at master seed 0 the 3 pooled training rows
    # all belong to base classes of the 10-class task
    from richlab import experiments

    def train(*args, **kwargs):
        raise AssertionError("a bank was trained")

    _refuse_work(monkeypatch)
    monkeypatch.setattr(experiments, "train_episodes", train)
    cfg = write_config(tmp_path, pipeline=pipeline, task={"kind": "class_split", "n_per_env": 1})
    assert cli.cmd_run(cfg, seed=0, out=str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (
        "config error: field task/n_per_env: the 3 rows of a 10-class split hold no row "
        "of its novel classes\n")
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# report

def sample_records():
    return [
        RunRecord("r", s, m, task, "id_test", "probe_accuracy", v + s / 1000)
        for s in (1, 2, 3)
        for (m, v) in (("erm", 0.5), ("cat5", 0.6))
        for task in ("alpha", "beta")
    ]


def test_report_table(tmp_path, capsys):
    path = tmp_path / "r.csv"
    write_records_csv(sample_records(), path)
    assert cli.cmd_report(str(path)) == 0
    out = capsys.readouterr().out
    assert "## task: alpha" in out
    assert out.index("alpha") < out.index("beta")  # task-name order
    assert "±" in out
    assert "| erm |" in out


def test_report_summary(tmp_path, capsys):
    path = tmp_path / "r.csv"
    write_records_csv(sample_records(), path)
    assert cli.cmd_report(str(path), kind="summary") == 0
    out = capsys.readouterr().out
    assert "methods: cat5, erm" in out


def test_report_empty_rows(tmp_path, capsys):
    path = tmp_path / "r.csv"
    path.write_text(CSV_HEADER + "\n")
    assert cli.cmd_report(str(path)) == 0


def test_report_header_mismatch(tmp_path, capsys):
    path = tmp_path / "r.csv"
    path.write_text("nope\n1,2,3\n")
    assert cli.cmd_report(str(path)) == 2
    assert capsys.readouterr().err.startswith(f"report error: {path}: CSV header mismatch")


def test_report_names_the_path_and_byte_of_invalid_utf8(tmp_path, capsys):
    path = tmp_path / "r.csv"
    path.write_bytes(CSV_HEADER.encode() + b"\nr,1,m,t,id_test,acc,0.5,a=\xff\n")
    assert cli.cmd_report(str(path)) == 2
    assert capsys.readouterr().err == (
        f"report error: {path}: byte {len(CSV_HEADER) + 27}: not UTF-8: invalid start byte\n")


def _report_row(out: str, method: str) -> list[str]:
    (line,) = [line for line in out.splitlines() if line.startswith(f"| {method} |")]
    return [cell.strip() for cell in line.strip("|").split("|")]


def test_report_shows_the_ood_candidate_each_seed_chose(capsys):
    # the golden ood run tunes 24 candidates per seed on held-out id_test
    # rows; the table shows the rows of the two chosen ones, not all 48
    from pathlib import Path

    import numpy as np

    from richlab.experiments import load_records_csv

    path = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "ood-vrex.csv"
    records = load_records_csv(path)
    chosen = {r.seed: r.extra["chosen"] for r in records if "chosen" in r.extra}
    vals = [r.value for r in records
            if r.split == "id_test" and chosen[r.seed] == r.extra["config_id"]]
    assert len(vals) == 2
    assert cli.cmd_report(str(path)) == 0
    cell = _report_row(capsys.readouterr().out, "erm")[1]
    assert cell == f"{np.mean(vals):.6g} ± {np.std(vals, ddof=1):.6g}"
    assert cell == "0.941666 ± 0.00392798"


# sha256 of what report prints for each golden CSV, one task table each
GOLDEN_REPORTS = {
    "fewshot": "f3c2f1452897a7ef9cbba25cc207c4ad76a907413f76025d16c99a03e2cf53c6",
    "ood-vrex": "9304cf6cb0c0c0ba1c36537b96623d049ea4451b9b3d73f0e8e151c2e1f60376",
    "transfer": "dbfceaf00070594ddec7f9e71df1de63e8290f0c887da41606362548b39c818b",
    "verify": "c4cb40d54e4d5c1a59b516b4d4a5d509df4c1810ceb2fe222381785ac2f811fe",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_report_renders_each_golden_csv(capsys, name):
    from hashlib import sha256
    from pathlib import Path

    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
    assert sorted(p.stem for p in golden.glob("*.csv")) == sorted(GOLDEN_REPORTS)
    assert cli.cmd_report(str(golden / f"{name}.csv")) == 0
    out = capsys.readouterr().out
    assert out.count("## task: ") == 1
    assert sha256(out.encode()).hexdigest() == GOLDEN_REPORTS[name]


def test_report_shows_the_chosen_candidate_of_an_ood_tuned_run(tmp_path, capsys):
    # two seeds, three candidates each, scored on the tune environment
    records = []
    for seed, choice in ((1, "c"), (2, "b")):
        for cid, value in (("a", 0.1), ("b", 0.2), ("c", 0.3)):
            records.append(RunRecord("ood", seed, "cat2", "t", "ood_tune", "accuracy",
                                     value + seed / 100, {"config_id": cid, "tune": "ood"}))
        records.append(RunRecord("ood", seed, "cat2", "t", "ood_test", "accuracy", 0.5,
                                 {"chosen": choice, "tune": "ood"}))
    path = tmp_path / "r.csv"
    write_records_csv(records, path)
    assert cli.cmd_report(str(path)) == 0
    # columns ood_test/accuracy, ood_tune/accuracy; the chosen tune rows are
    # 0.31 at seed 1 and 0.22 at seed 2
    assert _report_row(capsys.readouterr().out, "cat2") == [
        "cat2", "0.5 ± 0", "0.265 ± 0.0636396"]


# ---------------------------------------------------------------------------
# verify command

def test_verify_fault_injection_names_the_suite(monkeypatch, capsys):
    import richlab.probing as probing

    real = probing.union_cost

    def flipped(phi1, phi2, labels, config):
        c1, c2, cu = real(phi1, phi2, labels, config)
        return c1, c2, -cu + 2 * max(c1, c2)  # violate the inequality

    monkeypatch.setattr(probing, "union_cost", flipped)
    code = cli.cmd_verify(seed=0)
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL cost-of-union-inequality" in out
    assert "failed suites" in out


def test_verify_and_a_verify_run_print_one_report(tmp_path, capsys, monkeypatch):
    from richlab.experiments import load_records_csv
    from richlab.verify import SuiteResult

    seeds = []
    suites = [SuiteResult("kept", ["a detail"]),
              SuiteResult("broken", ["another detail"], ["a check"])]
    monkeypatch.setattr(cli.verify_mod, "run_all", lambda seed: seeds.append(seed) or suites)
    assert cli.main(["verify", "--seed", "3"]) == 1
    report = capsys.readouterr().out
    assert report == ("PASS kept\n  a detail\nFAIL broken (1 failed checks)\n"
                      "  another detail\n  FAILED: a check\nfailed suites: broken\n")
    out = tmp_path / "out"
    cfg = write_config(tmp_path, pipeline="verify", master_seed=3)
    assert cli.main(["run", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().out == report + f"wrote {out / 'results.csv'}\n"
    assert seeds == [3, 3]
    assert [(r.seed, r.method, r.metric, r.value)
            for r in load_records_csv(out / "results.csv")] == [
        (3, "kept", "pass", 1.0), (3, "broken", "pass", 0.0)]


def test_the_exact_algebra_suite_checks_the_trainers_vrex_objective(monkeypatch):
    from richlab import experiments, verify

    assert verify.exact_algebra_suite(0).passed
    real = experiments._env_objective_fn

    def shifted(*args):
        loss_fn = real(*args)

        def off_by_a_little(logits):
            objective, grad = loss_fn(logits)
            return objective + 1e-12, grad
        return off_by_a_little

    monkeypatch.setattr(experiments, "_env_objective_fn", shifted)
    result = verify.exact_algebra_suite(0)
    assert (result.passed, result.failures) == (
        False, ["vrex(beta=0) differs from the mean risk"])


def test_parser_shapes():
    parser = cli.build_parser()
    args = parser.parse_args(["run", "cfg.json", "--seed", "7"])
    assert args.command == "run" and args.seed == 7
    args = parser.parse_args(["report", "x.csv", "--kind", "summary"])
    assert args.kind == "summary"
    args = parser.parse_args(["verify", "--seed", "3"])
    assert args.seed == 3


@pytest.mark.parametrize("pipeline,runner,config_cls", [
    ("transfer", "run_transfer", "TransferConfig"),
    ("fewshot", "run_fewshot", "FewshotConfig"),
    ("ood", "run_ood", "OodConfig"),
])
def test_minimal_config_runs_with_dataclass_defaults(tmp_path, monkeypatch, pipeline,
                                                     runner, config_cls):
    from dataclasses import replace

    from richlab import experiments

    seen = {}

    def capture(*args, **kwargs):
        seen["config"] = next(a for a in (*args, *kwargs.values())
                              if isinstance(a, getattr(experiments, config_cls)))
        seen["kwargs"] = kwargs
        seen["args"] = args
        return []

    monkeypatch.setattr(cli, runner, capture)
    cfg = write_config(tmp_path, pipeline=pipeline, output_dir=str(tmp_path / "out"))
    assert cli.cmd_run(cfg) == 0
    default = getattr(experiments, config_cls)()
    # n_episodes, the few-shot methods and n_episodes_eval are config fields too
    assert seen["config"] == replace(default, seeds=cli.RunConfig().seeds)
    assert set(seen["kwargs"]) <= {"run_id", "task_name"}
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["master_seed"] == 0 and manifest["seeds"] == list(cli.RunConfig().seeds)
    if pipeline == "fewshot":
        from richlab.tasks import EpisodeSpec

        assert EpisodeSpec(n_way=5, k_shot=5, n_query=15) in seen["args"]


def test_config_keys_override_only_what_they_name(tmp_path, monkeypatch):
    from dataclasses import replace

    from richlab.core_nn import Schedule
    from richlab.experiments import TransferConfig

    seen = []
    monkeypatch.setattr(cli, "run_transfer", lambda *a, **k: seen.append(a[2]) or [])
    cfg = write_config(tmp_path, pipeline="transfer", output_dir=str(tmp_path / "out"),
                       hidden=[4, 3], train={"lr": 0.5, "schedule": {"every": 7}})
    assert cli.cmd_run(cfg) == 0
    default = TransferConfig()
    want_train = replace(default.train, lr=0.5,
                         schedule=replace(default.train.schedule, every=7))
    assert seen[0].hidden == (4, 3)
    assert seen[0].train == want_train
    assert seen[0].train.schedule == Schedule("cosine", 0.1, 7)
    assert seen[0].distill_train == default.distill_train


def test_fewshot_probe_key_sets_the_support_probes(tmp_path, capsys):
    from richlab.experiments import FewshotConfig
    from richlab.probing import ProbeConfig
    from test_pipeline_bytes import CASES

    assert FewshotConfig().probe == ProbeConfig(l2=1e-3, max_iters=300, grad_tol=1e-6)
    results = []
    for probe in ({}, {"probe": {"l2": 5, "max_iters": 1}}):
        cfg = write_config(tmp_path, **CASES["fewshot-linear"], **probe)
        assert cli.cmd_run(cfg, out=str(tmp_path / "out")) == 0
        results.append((tmp_path / "out" / "results.csv").read_bytes())
    capsys.readouterr()
    assert results[0] != results[1]


@pytest.mark.parametrize("config_cls,section", [
    ("TransferConfig", None), ("FewshotConfig", "fewshot"), ("OodConfig", "ood")])
def test_every_pipeline_config_field_is_a_schema_key(config_cls, section):
    # a field no config key reaches is an option nobody can set
    from dataclasses import fields

    from richlab import experiments

    keys = cli.load_schema()
    reachable = set(keys) | (set(keys[section]) if section else set())
    names = {f.name for f in fields(getattr(experiments, config_cls))} - {"seeds"}
    assert sorted(names - reachable) == []


def _schema_paths(schema, at: tuple = ()):
    for key, sub in _object_keys(schema).items():
        yield (*at, key)
        yield from _schema_paths(sub, (*at, key))


def _schema_part(value, schema):
    """The keys of ``value`` (dicts of defaults) that ``schema`` has, as JSON values."""
    if not _object_keys(schema):
        return list(value) if isinstance(value, tuple) else value
    return {key: _schema_part(value[key], sub)
            for key, sub in _object_keys(schema).items() if key in value}


def test_every_schema_key_is_read_by_some_pipeline():
    # the other direction: a schema key no reader reaches is a setting a
    # config can write and no run uses.  Each pipeline gets every key its
    # dataclasses have defaults for, in the run that reads the most of them
    from dataclasses import asdict

    from richlab import experiments as ex
    from richlab.tasks import EpisodeSpec

    schema = cli.load_schema()
    run = {"schema_version": 1, **asdict(cli.RunConfig())}
    shift = {"kind": "shift", **asdict(ex.default_shift_spec())}
    fewshot = {**asdict(EpisodeSpec()), **asdict(ex.FewshotConfig())}
    configs = {
        "transfer": {**run, **asdict(ex.TransferConfig(target="ood_sample")), "task": shift},
        "fewshot": {**run, **fewshot, "fewshot": fewshot,
                    "task": {"kind": "class_split", **asdict(ex.default_split_spec())}},
        "ood": {**run, **asdict(ex.TransferConfig()), "task": shift,
                "ood": asdict(ex.OodConfig(algorithm="vrex", tune_mode="iid", init="distill"))},
    }
    read = {("schema_version",), ("pipeline",)}  # as cmd_run reads them
    for pipeline, values in configs.items():
        cfg = _schema_part(dict(values, pipeline=pipeline), schema)
        assert cli.schema_errors(cfg, schema) == []
        cli._PIPELINES[pipeline](cfg, cli._merged(cli.RunConfig(), cfg, read), read)
    assert sorted(set(_schema_paths(schema)) - read) == []
