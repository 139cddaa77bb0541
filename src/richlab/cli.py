"""Command-line front end: run experiment configs, render CSV results as
markdown tables, and execute the property suites.

The schema, read off the config dataclasses (a new config field is one
dataclass edit), checks a config's structure: types, required and unknown
keys; the code that acts on each value (a config dataclass or a pipeline
builder, all run before any pipeline work) checks its bounds and choices.
Each refusal prints ``config error: field <path>: <message>``.  Exit codes:
0 success; 1 failed property suites; 2 configuration errors; 3 runtime failures.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import Callable, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ParameterError, RichlabError, check_bounds, check_choice
from .probing import sha256
# imported, not called: perfbench/tests checks that its tracer wraps cli.train_episodes
from .richrep import train_episodes
from .rng import derive_seed
from .tasks import EpisodeSpec, ShiftSpec, gen_shift, pool, split_point
from .experiments import (
    METHODS,
    FewshotConfig,
    OodConfig,
    OodTask,
    RunRecord,
    TransferConfig,
    TransferTask,
    build_representations,
    default_shift_spec,
    default_split_spec,
    load_records_csv,
    make_class_split_tasks,
    make_ft_target,
    make_shift_task,
    ood_sample,
    run_fewshot,
    run_ood,
    run_transfer,
    write_records_csv,
)
from . import verify as verify_mod
from . import __version__

SCHEMA_VERSION = 1
_JSON_TYPES = {int: "integer", float: "number", str: "string", bool: "boolean"}
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool}


def _object(properties: dict, **required) -> dict:
    """The schema of a JSON object that takes no key but ``properties``."""
    return {"type": "object", "additionalProperties": False, **required, "properties": properties}


def _schema_of(hint) -> dict:
    """The schema of a config field's type: a dataclass is an object, a tuple an array."""
    if is_dataclass(hint):
        return _object(_properties(hint))
    if get_origin(hint) is tuple:
        return {"type": "array", "items": _schema_of(get_args(hint)[0])}
    return {"type": _JSON_TYPES[hint]}


def _properties(*classes, skip=()) -> dict:
    """The schema of each field of the dataclasses ``classes`` but those in
    ``skip`` and the seeds, which the run derives and no key sets."""
    hints = {name: hint for cls in classes for name, hint in get_type_hints(cls).items()}
    return {f.name: _schema_of(hints[f.name]) for cls in classes for f in fields(cls)
            if f.name not in {"seed", "seeds", *skip}}


def load_schema() -> dict:
    """The config schema, read off the config dataclasses: the top-level keys are the fields
    of ``RunConfig`` and ``TransferConfig``; each section holds its pipeline's other fields."""
    top = _properties(RunConfig, TransferConfig)
    return _object({
        "schema_version": {"type": "integer"}, "pipeline": {"type": "string"},
        "include_anchors": {"type": "boolean"}, **top,
        "task": _object({"kind": {"type": "string"}, **_properties(ShiftSpec)}),
        "fewshot": _object(_properties(EpisodeSpec, FewshotConfig, skip=top)),
        "ood": _object(_properties(OodConfig, skip=top)),
    }, required=["pipeline"])


def _is_type(value, name: str) -> bool:
    """JSON types, stricter than Draft 7: a bool is no number, ``2.0`` no integer, NaN
    and infinity (which Python's json reads) no number."""
    if name not in ("integer", "number"):
        return isinstance(value, _TYPES[name])
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) if name == "integer" else math.isfinite(value)


def schema_errors(value, schema: dict, path: tuple = ()) -> list[tuple[tuple, str]]:
    """The ``(path, message)`` of every rule of ``schema`` that ``value`` breaks.

    Implements the Draft-7 structure keywords the config schema uses, with
    jsonschema's messages, and raises ``ValueError`` on any other keyword.
    """
    errors = []
    for key, rule in schema.items():
        message = None
        if key == "type":
            if not _is_type(value, rule):
                message = f"{value!r} is not of type {rule!r}"
        elif key == "items":
            if isinstance(value, list):
                for i, item in enumerate(value):
                    errors += schema_errors(item, rule, (*path, i))
        elif key == "properties":
            if isinstance(value, dict):
                for name, sub in rule.items():
                    if name in value:
                        errors += schema_errors(value[name], sub, (*path, name))
        elif key == "required":
            if isinstance(value, dict):
                errors += [(path, f"{name!r} is a required property")
                           for name in rule if name not in value]
        elif key == "additionalProperties" and rule is False:
            extras = set(value) - set(schema.get("properties", ())) \
                if isinstance(value, dict) else set()
            if extras:
                names = ", ".join(repr(name) for name in sorted(extras, key=str))
                message = (f"Additional properties are not allowed "
                           f"({names} {'was' if len(extras) == 1 else 'were'} unexpected)")
        else:
            raise ValueError(f"config schema keyword {key!r} is not implemented")
        if message is not None:
            errors.append((path, message))
    return errors


def _field_errors(errors: list[tuple[tuple, str]]) -> int:
    """Print one line per ``(path, message)``, sorted by path; returns exit code 2."""
    for path, message in sorted(errors, key=lambda e: e[0]):
        field = "/".join(str(p) for p in path) or "<root>"
        print(f"config error: field {field}: {message}", file=sys.stderr)
    return 2


def _merged(default, values: dict, read: set, section: str | None = None, at: tuple = ()):
    """``default`` with the fields that ``values`` names replaced, then
    those that its ``section`` names, if the config has that section.

    Keys that are not fields of ``default`` are left to other configs.
    JSON arrays become tuples, and a JSON object updates the dataclass
    held in its field the same way, so every unset value keeps the one
    default its dataclass declares.  The dataclass is built once, so its
    checks compare values from both levels (a section's ``n_snapshots``
    with a top-level ``train.epochs``), and its refusal names the key's path.
    The path of every key read, ``values`` at path ``at``, goes into ``read``.
    """
    scopes = [(values, at)]
    if section in values:
        read.add((*at, section))
        scopes.append((values[section], (*at, section)))
    # the path of each field's key; a field no key sets is named in the innermost scope
    updates, paths = {}, {f.name: (*scopes[-1][1], f.name) for f in fields(default)}
    for scope, path in scopes:
        for f in fields(default):
            if f.name not in scope:
                continue
            paths[f.name] = (*path, f.name)
            read.add(paths[f.name])
            value = scope[f.name]
            if isinstance(value, dict):
                value = _merged(updates.get(f.name, getattr(default, f.name)), value, read,
                                at=paths[f.name])
            elif isinstance(value, list):
                value = tuple(value)
            updates[f.name] = value
    try:
        return replace(default, **updates)
    except ParameterError as exc:
        raise ParameterError(exc.message, (*paths[exc.field[0]], *exc.field[1:])) from None


def _unread(values: dict, read: set, at: tuple = ()) -> list[tuple]:
    """Paths of the keys in ``values`` that no config read, outermost only."""
    paths = []
    for key, value in values.items():
        path = (*at, key)
        if path not in read:
            paths.append(path)
        elif isinstance(value, dict):
            paths += _unread(value, read, path)
    return paths


@dataclass(frozen=True)
class RunConfig:
    """The top-level settings every pipeline shares."""

    master_seed: int = 0
    n_seeds: int = 5
    output_dir: str = "results"

    def __post_init__(self):
        # the seed streams reduce a seed mod 2**64: a larger one would alias a smaller
        check_bounds("master_seed", self.master_seed, ge=0, lt=2**64)
        check_bounds("n_seeds", self.n_seeds, ge=1, le=50)
        if not self.output_dir:
            raise ParameterError(f"{self.output_dir!r} should be non-empty", "output_dir")

    @property
    def seeds(self) -> tuple[int, ...]:
        """One derived seed per seed group."""
        return tuple(derive_seed(self.master_seed, 10 + g) for g in range(self.n_seeds))


# the task kinds each pipeline serves, its default first; the generator
# spec each kind starts from; and the transfer targets each kind can serve
_KINDS = {"transfer": ("shift", "class_split"), "fewshot": ("class_split",),
          "ood": ("shift",)}
_SPECS = {"shift": default_shift_spec, "class_split": default_split_spec}
_TARGETS = {"shift": ("same", "ood_sample"), "class_split": ("same", "novel")}


def _task(cfg: dict, read: set, pipeline: str) -> tuple[str, ShiftSpec]:
    """The task kind and generator spec a config asks of ``pipeline``.

    The one reader of the task ``kind``; the other keys of the ``task``
    section set the fields of that kind's generator spec.  A kind the
    pipeline cannot serve is a configuration error.
    """
    kinds = _KINDS[pipeline]
    kind = cfg.get("task", {}).get("kind", kinds[0])
    read.add(("task", "kind"))
    if kind not in kinds:
        raise ParameterError(f"task kind {kind!r} does not apply to the {pipeline} pipeline; "
                             f"choose from {', '.join(kinds)}", ("task", "kind"))
    return kind, _merged(_SPECS[kind](), cfg, read, "task")


def _class_split(task: TransferTask) -> tuple[TransferTask, TransferTask]:
    """``make_class_split_tasks(task)``, refusing a split with no row of one side."""
    try:
        return make_class_split_tasks(task)
    except ParameterError as exc:
        raise ParameterError(exc.message, ("task", "n_per_env")) from None


def _transfer_pipeline(cfg: dict, run: RunConfig, read: set) -> Callable[[], list[RunRecord]]:
    """Build the transfer config dataclasses and draw the task; the returned
    call runs the pipeline."""
    tc = replace(_merged(TransferConfig(), cfg, read), seeds=run.seeds)
    check_choice("include_anchors", cfg.get("include_anchors", False), (False,))
    read.add(("include_anchors",))  # the pinned transfer workload sets it; see ROADMAP item 10
    kind, spec = _task(cfg, read, "transfer")
    if tc.target not in _TARGETS[kind]:
        raise ParameterError(f"target {tc.target!r} does not apply to a {kind!r} task; "
                             f"choose from {', '.join(_TARGETS[kind])}", "target")
    if tc.target != "ood_sample":  # only the OOD sample is drawn with target_rows rows
        read.discard(("target_rows",))
    pretrain = target = make_shift_task(spec, run.master_seed + 2)
    if kind == "class_split":
        pretrain, novel = _class_split(pretrain)
        target = novel if tc.target == "novel" else pretrain
    elif tc.target == "ood_sample":
        target = make_ft_target(spec, derive_seed(run.master_seed, 5), tc.target_rows)
    return lambda: run_transfer(pretrain, target, tc, run_id="transfer")


def _fewshot_pipeline(cfg: dict, run: RunConfig, read: set) -> Callable[[], list[RunRecord]]:
    """Build the few-shot config dataclasses and the class split; the
    returned call runs the pipeline."""
    episode_spec = _merged(EpisodeSpec(), cfg, read, "fewshot")
    fc = replace(_merged(FewshotConfig(), cfg, read, "fewshot"), seeds=run.seeds)
    _, spec = _task(cfg, read, "fewshot")
    # episodes draw from the novel classes of the split
    n_novel = spec.n_classes - split_point(spec.n_classes)
    if episode_spec.n_way > n_novel:
        raise ParameterError(f"a {episode_spec.n_way}-way episode needs {episode_spec.n_way} "
                             f"novel classes, a {spec.n_classes}-class task has {n_novel}",
                             ("fewshot", "n_way"))
    # only the pooled training environments: few-shot reads no test split;
    # drawing them is cheap, and tells how many rows each novel class has
    train = pool(gen_shift(spec, run.master_seed + 2)[0])
    base, novel = _class_split(TransferTask("shift", train))
    counts = np.bincount(novel.train.y, minlength=n_novel)
    need = episode_spec.k_shot + episode_spec.n_query
    if counts.min() < need:
        c = int(counts.argmin())
        raise ParameterError(
            f"an episode takes {need} rows of each class ({episode_spec.k_shot} support, "
            f"{episode_spec.n_query} query); class {spec.n_classes - n_novel + c} of the "
            f"{spec.n_classes}-class task has {counts[c]} training rows", ("fewshot", "n_query"))
    return lambda: run_fewshot(base, novel.train, episode_spec, fc, run_id="fewshot")


def make_ood_bundle(spec: ShiftSpec, seed: int) -> OodTask:
    """Environment bundle: train environments, one tune env, one test env."""
    train_envs, _, ood_test = gen_shift(spec, seed)
    return OodTask(train_envs, ood_sample(spec, derive_seed(seed, 3), spec.n_per_env),
                   ood_test)


def _ood_pipeline(cfg: dict, run: RunConfig, read: set) -> Callable[[], list[RunRecord]]:
    """Build the OOD config dataclasses; the returned call runs the pipeline."""
    oc = replace(_merged(OodConfig(), cfg, read, "ood"), seeds=run.seeds)
    _, spec = _task(cfg, read, "ood")
    n_rows = spec.n_per_env * len(spec.env_correlations)
    if oc.tune_mode == "iid" and oc.n_hold(n_rows) >= n_rows:
        raise ParameterError(f"{oc.holdout_frac!r} holds out all {n_rows} pooled training "
                             "rows and leaves none to train on", ("ood", "holdout_frac"))
    if oc.algorithm == "erm":  # erm trains at beta 0 alone
        read.discard(("ood", "beta_grid"))
    if oc.tune_mode == "ood":  # the tune environment scores the candidates, no row is held out
        read.discard(("ood", "holdout_frac"))
    tc = None
    if oc.init != "scratch":  # the settings its bank is built with, and no others
        tc = _merged(TransferConfig(), {key: cfg[key] for key in METHODS[oc.init].reads
                                        if key in cfg}, read)
    master = run.master_seed

    def pipeline() -> list[RunRecord]:
        task = make_ood_bundle(spec, master + 2)
        rep = None
        if tc is not None:
            (rep,) = build_representations([oc.init], pool(task.train_envs), tc, master,
                                           episode_offset=100)
        return run_ood(task, oc, rep, run_id="ood", task_name="shift-ood")

    return pipeline


def run_suites(seed: int) -> list[RunRecord]:
    """Run every property suite at ``seed``, print each one's line, details and
    failures, then a summary; one ``pass`` record per suite, 1.0 if it passed."""
    results = verify_mod.run_all(seed)
    for r in results:
        print(r.line())
        for line in r.details:
            print(f"  {line}")
        for line in r.failures:
            print(f"  FAILED: {line}")
    failed = [r.name for r in results if not r.passed]
    print(f"failed suites: {', '.join(failed)}" if failed else "all property suites passed")
    return [RunRecord("verify", seed, r.name, "verify", "verify", "pass", float(r.passed))
            for r in results]


# each builder adds the path of every config key it reads to its ``read``;
# verify runs the property suites at master_seed
_PIPELINES = {"transfer": _transfer_pipeline, "fewshot": _fewshot_pipeline,
              "ood": _ood_pipeline,
              "verify": lambda cfg, run, read: lambda: run_suites(run.master_seed)}


def cmd_run(config_path: str, seed: int | None = None, out: str | None = None) -> int:
    """Execute the pipeline named by a JSON config; returns the exit code."""
    try:
        text = Path(config_path).read_text(encoding="utf-8")
    except OSError as exc:
        return _field_errors([((), str(exc))])
    except UnicodeDecodeError as exc:
        return _field_errors([((), f"{config_path}: byte {exc.start}: not UTF-8: {exc.reason}")])
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        return _field_errors([((), f"{config_path}:{exc.lineno}:{exc.colno}: {exc.msg}")])
    errors = schema_errors(cfg, load_schema())
    if errors:
        return _field_errors(errors)
    overrides = {key: value for key, value in (("master_seed", seed), ("output_dir", out))
                 if value is not None}
    read = {("schema_version",), ("pipeline",)}
    pipeline = cfg["pipeline"]
    # verify runs the property suites at master_seed, and draws no seed groups
    run_keys = ("master_seed", "output_dir") + (() if pipeline == "verify" else ("n_seeds",))
    # every config dataclass is built before any pipeline work, so a value
    # that one rejects, or a key that none reads, is a configuration error,
    # not a runtime failure or a setting that silently does nothing
    try:
        check_choice("schema_version", cfg.get("schema_version", SCHEMA_VERSION), (SCHEMA_VERSION,))
        check_choice("pipeline", pipeline, tuple(_PIPELINES))
        # the config's own values are checked, then the command-line overrides
        for values in (cfg, overrides):
            cfg.update(values)
            run = _merged(RunConfig(), {key: cfg[key] for key in run_keys if key in cfg}, read)
        work = _PIPELINES[pipeline](cfg, run, read)
    except ParameterError as exc:
        return _field_errors([(exc.field, exc.message)])
    except (RichlabError, MemoryError) as exc:  # two builders draw their task
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    out_dir = Path(run.output_dir)
    unread = _unread(cfg, read)
    if unread:
        return _field_errors([(path, f"the {pipeline} pipeline does not read this key")
                              for path in unread])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # a null byte or an unpaired surrogate is a ValueError
        return _field_errors([(("output_dir",), str(exc))])
    try:
        # the trainers turn every non-finite value into a named error, so
        # numpy's floating-point warnings would only repeat it on stderr
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            records = work()
        write_records_csv(records, out_dir / "results.csv")
        manifest = {
            "pipeline": pipeline,
            "version": f"richlab-{__version__}",
            "config_hash": sha256(
                json.dumps(cfg, sort_keys=True).encode()).hexdigest(),
            "master_seed": run.master_seed,
            "seeds": list(run.seeds) if "n_seeds" in run_keys else [],
            "results": "results.csv",
        }
        (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    except (RichlabError, MemoryError) as exc:  # numpy's allocation failure is a MemoryError
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {out_dir / 'results.csv'}")
    # a failed property suite exits 1, after its report and files
    return 1 if any(r.metric == "pass" and r.value == 0 for r in records) else 0


# ---------------------------------------------------------------------------
# reporting

def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _markdown_table(header: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def cmd_report(csv_path: str, kind: str = "table") -> int:
    """Pivot a results CSV into markdown (method x split/metric, mean +- std)."""
    try:
        records = load_records_csv(csv_path)
    except (OSError, RichlabError, ValueError) as exc:
        print(f"report error: {exc}", file=sys.stderr)
        return 2
    # an ood run scores every grid candidate on its tune split; a seed's
    # table cell counts only the candidate its ood_test row names as chosen
    chosen = {(r.run_id, r.seed, r.method, r.task): r.extra["chosen"]
              for r in records if "chosen" in r.extra}
    shown = [r for r in records if "config_id" not in r.extra
             or chosen.get((r.run_id, r.seed, r.method, r.task)) == r.extra["config_id"]]
    tasks = sorted({r.task for r in records})
    out = []
    for task in tasks:
        rows_for_task = [r for r in records if r.task == task]
        cols = sorted({(r.split, r.metric) for r in rows_for_task})
        methods = sorted({r.method for r in rows_for_task})
        out.append(f"## task: {task}")
        if kind == "summary":
            seeds = sorted({r.seed for r in rows_for_task})
            out.append(f"methods: {', '.join(methods)}; rows: {len(rows_for_task)}; "
                       f"seeds: {len(seeds)}")
            out.append("")
            continue
        header = ["method"] + [f"{s}/{m}" for s, m in cols]
        table_rows = []
        for method in methods:
            row = [method]
            for col in cols:
                vals = [r.value for r in shown if r.task == task and r.method == method
                        and (r.split, r.metric) == col]
                if not vals:
                    row.append("-")
                elif len(vals) == 1:
                    row.append(_fmt(vals[0]))
                else:
                    row.append(f"{_fmt(float(np.mean(vals)))} ± "
                               f"{_fmt(float(np.std(vals, ddof=1)))}")
            table_rows.append(row)
        out.append(_markdown_table(header, table_rows))
        out.append("")
        out.append("Measured rows are desk-scale analogs from this lab's synthetic tasks.")
        out.append("")
    print("\n".join(out))
    return 0


def cmd_verify(seed: int = 0) -> int:
    """Run every property suite; exit 0 only if all pass, 2 if RunConfig refuses ``seed``."""
    try:
        RunConfig(master_seed=seed)
    except ParameterError as exc:
        return _field_errors([(exc.field, exc.message)])
    return 0 if all(r.value for r in run_suites(seed)) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="richlab",
        description="rich-representation laboratory: experiments, reports, property suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config (JSON)")
    p_run.add_argument("config", help="path to the JSON experiment config")
    p_run.add_argument("--seed", type=int, default=None, help="override master_seed")
    p_run.add_argument("--out", default=None, help="override output_dir")

    p_rep = sub.add_parser("report", help="render a results CSV as markdown")
    p_rep.add_argument("csv", help="path to results.csv")
    p_rep.add_argument("--kind", choices=("table", "summary"), default="table")

    p_ver = sub.add_parser("verify", help="run the property suites")
    p_ver.add_argument("--seed", type=int, default=0,
                       help="seed for random instances (never changes verdicts)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, seed=args.seed, out=args.out)
    if args.command == "report":
        return cmd_report(args.csv, kind=args.kind)
    return cmd_verify(seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
