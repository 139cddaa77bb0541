import json

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


def test_run_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not valid json")
    assert cli.cmd_run(str(path)) == 2
    assert "config error" in capsys.readouterr().err


def test_run_unknown_key_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, pipeline="verify", tyop=1)
    assert cli.cmd_run(cfg) == 2
    err = capsys.readouterr().err
    assert "tyop" in err


def test_run_bad_enum_value(tmp_path, capsys):
    cfg = write_config(tmp_path, pipeline="discombobulate")
    assert cli.cmd_run(cfg) == 2
    assert "pipeline" in capsys.readouterr().err


def test_run_missing_file(capsys):
    assert cli.cmd_run("/nonexistent/config.json") == 2


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


def test_report_marks_anchors(tmp_path, capsys):
    from richlab.experiments import reference_anchor_records

    path = tmp_path / "r.csv"
    write_records_csv(sample_records() + reference_anchor_records("r"), path)
    cli.cmd_report(str(path))
    out = capsys.readouterr().out
    assert "reference anchors" in out
    assert "context only" in out


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
        return []

    monkeypatch.setattr(cli, runner, capture)
    cfg = write_config(tmp_path, pipeline=pipeline, output_dir=str(tmp_path / "out"))
    assert cli.cmd_run(cfg) == 0
    default = getattr(experiments, config_cls)()
    assert seen["config"] == replace(default, seeds=cli._derived_seeds(0, 5))
    assert "n_episodes_eval" not in seen["kwargs"]  # run_fewshot keeps its own default


def test_config_keys_override_only_what_they_name(tmp_path, monkeypatch):
    from dataclasses import replace

    from richlab.core_nn import Schedule
    from richlab.experiments import TransferConfig

    seen = []
    monkeypatch.setattr(cli, "run_transfer", lambda *a, **k: seen.append(a[3]) or [])
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
