"""Command-line front end: run experiment configs, render CSV results as
markdown tables, and execute the property suites.

Exit codes: 0 success; 1 failed property suites; 2 configuration errors
(with line/field diagnostics); 3 runtime failures.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import fields, replace
from importlib import resources
from pathlib import Path

import jsonschema

from .errors import RichlabError
from .richrep import bank_of_trunks, distill, train_episodes
from .rng import derive_seed
from .tasks import env_partition, gen_shift, pool
from .experiments import (
    FewshotConfig,
    OodConfig,
    RunRecord,
    TransferConfig,
    default_shift_spec,
    default_split_spec,
    load_records_csv,
    make_class_split_tasks,
    make_ft_target,
    make_shift_task,
    run_fewshot,
    run_ood,
    run_transfer,
    write_records_csv,
)
from .tasks import EpisodeSpec, ShiftSpec
from . import verify as verify_mod
from . import __version__

SCHEMA_VERSION = 1


def load_schema() -> dict:
    text = resources.files("richlab").joinpath("config_schema.json").read_text()
    return json.loads(text)


def _config_error(msg: str) -> int:
    print(f"config error: {msg}", file=sys.stderr)
    return 2


def _merged(default, values: dict):
    """``default`` with the fields that ``values`` names replaced.

    Keys that are not fields of ``default`` are left to other configs.
    JSON arrays become tuples, and a JSON object updates the dataclass
    held in its field the same way, so every unset value keeps the one
    default its dataclass declares.
    """
    updates = {}
    for f in fields(default):
        if f.name not in values:
            continue
        value = values[f.name]
        if isinstance(value, dict):
            value = _merged(getattr(default, f.name), value)
        elif isinstance(value, list):
            value = tuple(value)
        updates[f.name] = value
    return replace(default, **updates)


def _derived_seeds(master: int, n: int) -> tuple[int, ...]:
    return tuple(derive_seed(master, 10 + g) for g in range(n))


def _run_transfer_pipeline(cfg: dict, master: int) -> list[RunRecord]:
    task_cfg = cfg.get("task", {})
    kind = task_cfg.get("kind", "shift")
    n_episodes = cfg.get("n_episodes", 5)
    tc = replace(_merged(TransferConfig(), cfg),
                 seeds=_derived_seeds(master, cfg.get("n_seeds", 5)))
    target_kind = cfg.get("target", "same")
    if kind == "class_split":
        spec = _merged(default_split_spec(), task_cfg)
        half = spec.n_classes // 2
        base, novel = make_class_split_tasks(
            spec, master + 2, list(range(half)), list(range(half, spec.n_classes)))
        pretrain, target = base, (novel if target_kind == "novel" else base)
    else:
        spec = _merged(default_shift_spec(), task_cfg)
        pretrain = make_shift_task(spec, master + 2)
        if target_kind == "ood_sample":
            target = make_ft_target(spec, derive_seed(master, 5),
                                    cfg.get("target_rows", 120))
        else:
            target = pretrain
    return run_transfer(pretrain, target, n_episodes, tc, run_id="transfer")


def _run_fewshot_pipeline(cfg: dict, master: int) -> list[RunRecord]:
    spec = _merged(default_split_spec(), cfg.get("task", {}))
    half = spec.n_classes // 2
    base, novel_task = make_class_split_tasks(
        spec, master + 2, list(range(half)), list(range(half, spec.n_classes)))
    fs = cfg.get("fewshot", {})
    episode_spec = EpisodeSpec(
        n_way=fs.get("n_way", 5), k_shot=fs.get("k_shot", 5),
        n_query=fs.get("n_query", 15))
    fc = replace(_merged(_merged(FewshotConfig(), cfg), fs),
                 seeds=_derived_seeds(master, cfg.get("n_seeds", 5)))
    methods = cfg.get("methods", ["erm", "cat", "cat-s", "snaps"])
    eval_kw = {"n_episodes_eval": fs["n_episodes_eval"]} if "n_episodes_eval" in fs else {}
    return run_fewshot(base, novel_task.train, methods, episode_spec, fc,
                       run_id="fewshot", n_episodes=cfg.get("n_episodes", 5), **eval_kw)


def make_ood_bundle(spec: ShiftSpec, seed: int):
    """Environment bundle: train environments, one tune env, one test env."""
    train_envs, _, ood_test = gen_shift(spec, seed)
    tune_spec = replace(spec, env_correlations=(spec.ood_correlation,))
    tune_envs, _, _ = gen_shift(tune_spec, derive_seed(seed, 3))
    envs = [*train_envs, tune_envs[0], ood_test]
    roles = {"train": list(range(len(train_envs))),
             "tune": len(train_envs), "test": len(train_envs) + 1}
    return env_partition(envs, roles)


def _run_ood_pipeline(cfg: dict, master: int) -> list[RunRecord]:
    spec = _merged(default_shift_spec(), cfg.get("task", {}))
    task = make_ood_bundle(spec, master + 2)
    oc = replace(_merged(_merged(OodConfig(), cfg), cfg.get("ood", {})),
                 seeds=_derived_seeds(master, cfg.get("n_seeds", 5)))
    bank = None
    if oc.init in ("cat", "distill"):
        n_episodes = cfg.get("n_episodes", 5)
        pooled = pool(task.train_envs)
        ep_seeds = [derive_seed(master, 100 + i) for i in range(n_episodes)]
        tc = _merged(TransferConfig(), cfg)
        bank = train_episodes(pooled, oc.hidden, tc.train, ep_seeds)
        if oc.init == "distill":
            student = distill(bank, tc.distill, pooled,
                              tc.distill_train.with_seed(derive_seed(master, 500)))
            bank = bank_of_trunks([student], [derive_seed(master, 500)])
    return run_ood(task, oc, init_bank=bank, run_id="ood", task_name="shift-ood")


def _run_verify_pipeline(master: int) -> tuple[list[RunRecord], bool]:
    results = verify_mod.run_all(master)
    records = []
    for r in results:
        print(r.line())
        records.append(RunRecord("verify", master, r.name, "verify", "verify",
                                 "pass", 1.0 if r.passed else 0.0))
    return records, all(r.passed for r in results)


def cmd_run(config_path: str, seed: int | None = None, out: str | None = None) -> int:
    """Execute the pipeline named by a JSON config; returns the exit code."""
    try:
        text = Path(config_path).read_text()
    except OSError as exc:
        return _config_error(str(exc))
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        return _config_error(f"{config_path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    validator = jsonschema.Draft7Validator(load_schema())
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if errors:
        for err in errors:
            path = "/".join(str(p) for p in err.absolute_path) or "<root>"
            print(f"config error: field {path}: {err.message}", file=sys.stderr)
        return 2
    if seed is not None:
        cfg["master_seed"] = seed
    if out is not None:
        cfg["output_dir"] = out
    master = cfg.get("master_seed", 0)
    out_dir = Path(cfg.get("output_dir", "results"))

    pipeline = cfg["pipeline"]
    try:
        suites_ok = True
        if pipeline == "transfer":
            records = _run_transfer_pipeline(cfg, master)
        elif pipeline == "fewshot":
            records = _run_fewshot_pipeline(cfg, master)
        elif pipeline == "ood":
            records = _run_ood_pipeline(cfg, master)
        else:
            records, suites_ok = _run_verify_pipeline(master)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_records_csv(records, out_dir / "results.csv")
        manifest = {
            "pipeline": pipeline,
            "version": f"richlab-{__version__}",
            "config_hash": hashlib.sha256(
                json.dumps(cfg, sort_keys=True).encode()).hexdigest(),
            "master_seed": master,
            "seeds": list(_derived_seeds(master, cfg.get("n_seeds", 5))),
            "results": "results.csv",
        }
        (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    except RichlabError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {out_dir / 'results.csv'}")
    return 0 if suites_ok else 1


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
    measured = [r for r in records if r.extra.get("kind") != "anchor"]
    anchors = [r for r in records if r.extra.get("kind") == "anchor"]
    tasks = sorted({r.task for r in measured})
    out = []
    for task in tasks:
        rows_for_task = [r for r in measured if r.task == task]
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
                vals = [r.value for r in rows_for_task
                        if r.method == method and (r.split, r.metric) == col]
                if not vals:
                    row.append("-")
                elif len(vals) == 1:
                    row.append(_fmt(vals[0]))
                else:
                    import numpy as np

                    row.append(f"{_fmt(float(np.mean(vals)))} ± "
                               f"{_fmt(float(np.std(vals, ddof=1)))}")
            table_rows.append(row)
        out.append(_markdown_table(header, table_rows))
        out.append("")
        out.append("Measured rows are desk-scale analogs from this lab's synthetic tasks.")
        out.append("")
    if anchors:
        out.append("## reference anchors")
        out.append("Published large-scale reference numbers, for context only "
                   "(not produced by this lab):")
        out.append("")
        header = ["method", "task", "split/metric", "value", "notes"]
        rows = [[r.method, r.task, f"{r.split}/{r.metric}", _fmt(r.value),
                 format_notes(r.extra)] for r in anchors]
        out.append(_markdown_table(header, rows))
        out.append("")
    print("\n".join(out))
    return 0


def format_notes(extra: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(extra.items())
                    if k not in ("kind",))


def cmd_verify(seed: int = 0) -> int:
    """Run every property suite; exit 0 only if all pass."""
    results = verify_mod.run_all(seed)
    failed = []
    for r in results:
        print(r.line())
        for line in r.details:
            print(f"  {line}")
        for line in r.failures:
            print(f"  FAILED: {line}")
        if not r.passed:
            failed.append(r.name)
    if failed:
        print(f"failed suites: {', '.join(failed)}")
        return 1
    print("all property suites passed")
    return 0


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
