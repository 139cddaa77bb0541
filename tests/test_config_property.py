"""Property test of ``richlab run`` over configs drawn from the config schema.

The schema gives the structure: its keys, their nesting and types.  Each
bounded key (the bounds the schema held before the config dataclasses
took them over) draws from the values in ``VALUES``: its bounds, a value
just outside each, and a typical value; each key with a list of choices
draws one of them, one string outside them or an object.  The size keys
stay tiny, so a valid config runs in well under a second.

Whatever the config, ``cmd_run`` exits 0, 2 or 3 and never raises.  An exit
2 enters no pipeline runner, makes no output directory and prints only
``config error: field`` lines; an exit 3 prints one ``runtime error:`` line,
and it names a seed.
"""
import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from richlab import cli
from richlab.experiments import METHODS
from test_cli import record_work

# the first seed the seed streams would alias, and a learning rate that diverges
N, HUGE = 2**64, 1e300
# the widest trunk or block and the largest scale a config takes; a size key
# or loop count draws only the value past its bound, since a run at the
# bound is not tiny
WIDE, SCALE = 10**4, 1e6
# the values each bounded or choice key draws, by path (train covers ft and distill_train)
VALUES = {
    ("schema_version",): [1, 2],
    ("task", "kind"): ["shift", "class_split", "grid", {}],
    ("target",): ["same", "ood_sample", "novel", "base", {}],
    ("train", "schedule", "kind"): ["constant", "step", "cosine", "linear", {}],
    ("distill", "mode"): ["kl", "ce_kl", "cosine", "l2", {}],
    ("fewshot", "classifier"): ["linear", "cosine", "knn", {}],
    ("ood", "algorithm"): ["erm", "vrex", "irm", {}],
    ("ood", "init"): ["scratch", "cat", "distill", "joint", {}],
    ("ood", "tune_mode"): ["iid", "ood", "test", {}],
    ("master_seed",): [-1, 0, 1, N - 1, N],
    ("n_seeds",): [0, 1, 2, 50, 51],
    ("n_episodes",): [0, 1, 2, 50, 51],
    ("methods",): st.lists(st.sampled_from([*METHODS, "cta"]), max_size=3),
    ("hidden",): st.lists(st.sampled_from([0, 1, 3, WIDE + 1]), max_size=2),
    ("task", "n_classes"): [1, 2, 3],
    ("task", "d_core"): [0, 1, 3, WIDE, WIDE + 1],
    ("task", "d_spur"): [0, 1, 3, WIDE, WIDE + 1],
    ("task", "d_noise"): [-1, 0, 2, WIDE, WIDE + 1],
    ("task", "core_scale"): [-1.0, 0.0, 1e-9, 1.0, SCALE, 2 * SCALE],
    ("task", "spur_scale"): [-1.0, 0.0, 1e-9, 3.0, SCALE, 2 * SCALE],
    ("task", "noise_std"): [-0.5, 0.0, 0.8, SCALE, 2 * SCALE],
    ("task", "env_correlations"): st.lists(st.sampled_from([-0.1, 0.0, 0.9, 1.0, 1.1]),
                                           max_size=3),
    ("task", "ood_correlation"): [-0.1, 0.0, 0.2, 1.0, 1.1],
    ("task", "n_per_env"): [0, 1, 2, 30, 10**6 + 1],
    ("target_rows",): [9, 10, 30, 10**6 + 1],
    ("train", "lr"): [0.0, 1e-9, 0.1, HUGE],
    ("train", "epochs"): [-1, 0, 1, 2, 10**4 + 1],
    ("train", "batch_size"): [0, 1, 32],
    ("train", "momentum"): [-0.1, 0.0, 0.9, 1.0],
    ("train", "weight_decay"): [-1e-3, 0.0, 1e-3],
    ("train", "schedule", "factor"): [0.0, 1e-9, 0.5],
    ("train", "schedule", "every"): [0, 1, 30],
    ("stage2_epochs",): [-1, 0, 2, 10**4 + 1],
    ("stage2_lr",): [0.0, 1e-3, HUGE],
    ("probe", "l2"): [-0.5, 0.0, 1e-3],
    ("probe", "max_iters"): [0, 1, 10, 10**6 + 1],
    ("probe", "grad_tol"): [0.0, 1e-7],
    ("distill", "tau"): [0.0, 1e-9, 10.0],
    ("distill", "alpha"): [-0.1, 0.0, 0.9, 1.0, 1.1],
    ("distill", "student_arch"): st.lists(st.sampled_from([0, 1, 3, WIDE + 1]), max_size=2),
    ("fewshot", "n_way"): [1, 2, 3],
    ("fewshot", "k_shot"): [0, 1, 2],
    ("fewshot", "n_query"): [0, 1, 2],
    ("fewshot", "n_episodes_eval"): [1, 2, 3, 10**5 + 1],
    ("fewshot", "n_snapshots"): [0, 1, 2],
    ("fewshot", "snapshot_lr_mult"): [0.0, 1e-9, 8.0],
    ("ood", "beta_grid"): st.lists(st.sampled_from([0.0, 1e-9, 1.0, HUGE]), max_size=2),
    ("ood", "lr_grid"): st.lists(st.sampled_from([0.0, 1e-9, 0.1, HUGE]), max_size=2),
    ("ood", "wd_grid"): st.lists(st.sampled_from([-1e-3, 0.0, 1e-3]), max_size=2),
    ("ood", "steps"): [0, 1, 3, 10**5 + 1],
    ("ood", "holdout_frac"): [0.0, 1e-9, 0.2, 0.9995, 1.0],
}
# the keys each pipeline's configs draw from, mostly keys it reads (verify
# refuses n_seeds); a config also draws one key from outside its set at times
READ = {
    "verify": {"schema_version", "master_seed", "n_seeds"},
    "transfer": {"schema_version", "master_seed", "n_seeds", "n_episodes", "methods",
                 "include_anchors", "hidden", "task", "target", "target_rows", "train", "ft",
                 "distill_train", "stage2_epochs", "stage2_lr", "probe", "distill"},
    "fewshot": {"schema_version", "master_seed", "n_seeds", "n_episodes", "methods", "hidden",
                "task", "train", "distill_train", "probe", "distill", "fewshot"},
    "ood": {"schema_version", "master_seed", "n_seeds", "hidden", "task", "ood"},
}
# the size keys a run of each pipeline reads, and the tiny value each takes
# when the config draws none (few-shot also needs episodes and snapshots
# that 30 rows per environment and 2 epochs can give)
SIZES = {
    "verify": {},
    "transfer": {("task", "n_per_env"): 30, ("train", "epochs"): 2, ("ft", "epochs"): 1,
                 ("distill_train", "epochs"): 1, ("stage2_epochs",): 1,
                 ("probe", "max_iters"): 10},
    "fewshot": {("task", "n_per_env"): 30, ("train", "epochs"): 2,
                ("distill_train", "epochs"): 1, ("probe", "max_iters"): 10,
                ("fewshot", "n_episodes_eval"): 2, ("fewshot", "n_snapshots"): 2,
                ("fewshot", "k_shot"): 1, ("fewshot", "n_query"): 2},
    "ood": {("task", "n_per_env"): 30, ("ood", "steps"): 3},
}
# an ood run from a bank reads the settings its init method reads
OOD_INIT_SIZES = {"cat": {("train", "epochs"): 2},
                  "distill": {("train", "epochs"): 2, ("distill_train", "epochs"): 1}}
SCHEMA = cli.load_schema()


def _values(schema: dict, path: tuple):
    """A strategy for the value at ``path``, from the schema's structure."""
    if "properties" in schema:
        return st.fixed_dictionaries({}, optional={
            key: _values(sub, (*path, key)) for key, sub in schema["properties"].items()})
    key = ("train", *path[1:]) if path[0] in ("ft", "distill_train") else path
    if key in VALUES:
        values = VALUES[key]
        return values if isinstance(values, st.SearchStrategy) else st.sampled_from(values)
    if schema.get("type") == "boolean":
        return st.booleans()
    raise AssertionError(f"no values for the schema key {'/'.join(path)}")


@st.composite
def configs(draw):
    """A config of up to three keys besides ``pipeline``, mostly keys its
    pipeline reads, with the size keys set; a ``--seed``; and whether
    ``output_dir`` is empty."""
    pipeline = draw(st.sampled_from(sorted(READ)))
    keys = draw(st.sets(st.sampled_from(sorted(READ[pipeline])), max_size=3))
    if draw(st.integers(0, 3)) == 0:
        keys.add(draw(st.sampled_from(sorted(set(SCHEMA["properties"]) - {"pipeline"}))))
    keys.discard("output_dir")  # set by the test, under its own directory
    cfg = {"pipeline": pipeline}
    for key in sorted(keys):
        cfg[key] = draw(_values(SCHEMA["properties"][key], (key,)))
    sizes = SIZES[pipeline]
    if pipeline == "ood":
        sizes = {**sizes, **OOD_INIT_SIZES.get(str(cfg.get("ood", {}).get("init")), {})}
    for path, value in sizes.items():
        node = cfg
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node.setdefault(path[-1], value)
    if pipeline != "verify" and draw(st.integers(0, 5)) == 0:  # one run in six diverges
        if pipeline == "ood":
            cfg.setdefault("ood", {})["lr_grid"] = [HUGE]
        else:
            cfg.setdefault("train", {})["lr"] = HUGE
    seed = draw(st.sampled_from([None, None, None, -1, 0, N]))
    return cfg, seed, draw(st.integers(0, 7)) == 0


@settings(max_examples=300, deadline=None)
@given(configs())
def test_run_exits_0_2_or_3_and_refuses_before_any_work(drawn):
    cfg, seed, empty_out = drawn
    calls = []
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        out = Path(tmp) / "out"
        cfg = dict(cfg, output_dir="" if empty_out else str(out))
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        record_work(mp, calls, run=True)
        # the property suites take about 18 s, and tests/test_cli.py runs them
        mp.setattr(cli.verify_mod, "run_all", lambda master: [])
        stderr = io.StringIO()
        with redirect_stderr(stderr), redirect_stdout(io.StringIO()):
            code = cli.cmd_run(str(path), seed=seed)
        err = stderr.getvalue()
        event(f"exit {code}")
        assert code in (0, 2, 3), err
        if code == 2:
            assert calls == [], err
            assert not out.exists()
            assert err and all(line.startswith("config error: field ")
                               for line in err.splitlines())
        if code == 3:
            assert re.fullmatch(r"runtime error: [^\n]*\bseed \d+[^\n]*\n", err), err
