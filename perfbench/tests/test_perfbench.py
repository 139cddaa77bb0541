"""Self-tests of the benchmark: span arithmetic, metric names, failure
accounting and the fresh-process runner.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""
from __future__ import annotations

import hashlib
import json
import math
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
for p in (str(HERE), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import run  # noqa: E402
import tracer  # noqa: E402

# names and units as BENCHMARK.json must spell them
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

# a tiny ood pipeline: one seed, one grid point, three full-batch steps
TINY_CONFIG = {
    "schema_version": 1, "pipeline": "ood", "n_seeds": 1, "hidden": [4],
    "task": {"kind": "shift", "n_per_env": 20},
    "ood": {"algorithm": "vrex", "beta_grid": [1.0], "lr_grid": [0.1],
            "wd_grid": [0.0], "steps": 3},
}


def test_self_time_on_nested_spans():
    # root [0, 10] with children [1, 4] and [5, 9]; [1, 4] has child [2, 3]
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 2.0, 3.0, 1, None],
        ["a", 5.0, 9.0, 0, None],
    ]
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])
    stats = tracer.layer_stats(spans)
    assert stats["a"].calls == 2
    assert stats["a"].total_s == pytest.approx(7.0)
    assert stats["a"].self_s == pytest.approx(6.0)
    assert tracer.coverage(spans) == pytest.approx(0.7)


def test_overlapping_children_count_once():
    spans = [["root", 0.0, 10.0, -1, None],
             ["a", 1.0, 6.0, 0, None],
             ["b", 4.0, 12.0, 0, None]]
    assert tracer.self_times(spans)[0] == pytest.approx(1.0)


def test_probe_spans_split_by_rows():
    spans = [["cli.cmd_run", 0.0, 3.0, -1, None],
             ["probing.fit_probe", 0.0, 1.0, 0, {"kind": "support", "converged": False}],
             ["probing.fit_probe", 1.0, 3.0, 0, {"kind": "full", "converged": True}]]
    names = ["probing.fit_probe.support.calls", "probing.fit_probe.full.self_s",
             "probing.fit_probe.converged_frac", "trace.overhead_s", "trace.coverage"]
    metrics = run.per_layer_metrics([{"name": n, "unit": "u"} for n in names],
                                    spans, traced_run_s=3.5, untraced_run_s=3.0)
    assert metrics["probing.fit_probe.support.calls"]["value"] == 1
    assert metrics["probing.fit_probe.full.self_s"]["value"] == pytest.approx(2.0)
    assert metrics["probing.fit_probe.converged_frac"]["value"] == pytest.approx(0.5)
    assert metrics["trace.overhead_s"]["value"] == pytest.approx(0.5)
    assert metrics["trace.coverage"]["value"] == pytest.approx(1.0)


def test_benchmark_json_names_and_units():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    for m in metrics:
        assert UNIT_RE.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": bounds["setup_s"]} in bench["end_to_end"]
    assert not NAME_RE.match("_leading.underscore")
    assert not NAME_RE.match("has space")
    # every workload is listed, except those that fail at most seeds
    spec = run.workload_spec()["workloads"]
    assert sorted(w["name"] for w in bench["workloads"]) == \
        sorted(n for n, w in spec.items() if "known_failure" not in w)


def test_golden_files_match_recorded_hashes():
    for name in run.workload_spec()["workloads"]:
        data, rows, problem = run.Workload.load(name).golden()
        assert problem is None, problem
        assert rows


def test_tracer_wraps_every_binding_site():
    import richlab
    from richlab import experiments, probing, richrep, rng, verify

    original = probing.fit_probe
    t = tracer.Tracer()
    t.install()
    try:
        for module in (probing, experiments, richrep, verify):
            assert module.fit_probe.__wrapped__ is original
        assert hasattr(rng.SplitMix64.permutation, "__wrapped__")
        assert hasattr(richlab.cli.train_episodes, "__wrapped__")
        assert all(hasattr(suite, "__wrapped__") for suite in verify.ALL_SUITES)
        perm = rng.SplitMix64(7).permutation(5)
        verify.exact_algebra_suite(0)
        verify.ALL_SUITES[-1](0)
    finally:
        t.uninstall()
    assert not any(hasattr(suite, "__wrapped__") for suite in verify.ALL_SUITES)
    assert probing.fit_probe is original and experiments.fit_probe is original
    assert not hasattr(rng.SplitMix64.permutation, "__wrapped__")
    assert sorted(perm.tolist()) == list(range(5))
    assert [s[0] for s in t.spans][:1] == ["rng.permutation"]
    assert t.spans[0][4] == {"items": 5}
    # the module-global binding and the ALL_SUITES entry both record spans
    assert [s[0] for s in t.spans if s[0].startswith("verify.")] == \
        ["verify.exact_algebra_suite"] * 2


@pytest.fixture
def tiny_workload(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY_CONFIG))
    return run.Workload("tiny", config, tmp_path / "golden.csv", "",
                        ["cli.cmd_run", "experiments.run_ood"], pinned_seed=0)


def test_runner_reports_setup_and_memory(tiny_workload):
    res = run.run_workload(tiny_workload, 0, run.OUT / "r", timeout=120)
    assert res.failure is None
    assert 0 < res.setup_s < 60
    assert 0 < res.run_s < 60
    # the child's own peak, not the pytest process it was started from
    assert 1 < res.rss_mb < 500
    rows = run.parse_rows(res.csv.decode())
    assert rows and all(math.isfinite(v) for v in rows.values())


def test_wrong_golden_hash_counts_as_failed_run(tiny_workload, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    res = run.run_workload(tiny_workload, 0, run.OUT / "g", timeout=120)
    tiny_workload.golden_csv.write_bytes(res.csv)
    tiny_workload.golden_sha256 = hashlib.sha256(b"something else").hexdigest()
    report = run.measure(tiny_workload, 0, 0.0, trace=False)
    assert report["failed"] >= 1
    assert report["failed"] <= report["attempted"]
    assert any("sha256" in f for f in report["failures"])


def test_nonzero_exit_with_outputs_fails_but_keeps_timings(tiny_workload, monkeypatch):
    # richlab verify exits 1 when a suite fails, after writing its outputs
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    res = run.run_workload(tiny_workload, 0, run.OUT / "g", timeout=120)
    tiny_workload.golden_csv.write_bytes(res.csv)
    tiny_workload.golden_sha256 = hashlib.sha256(res.csv).hexdigest()
    real_spawn = run.spawn

    def spawn(mode, run_dir, timeout, args=()):
        rc, result, setup_s = real_spawn(mode, run_dir, timeout, args)
        return (1 if mode == "run" else rc), result, setup_s

    monkeypatch.setattr(run, "spawn", spawn)
    report = run.measure(tiny_workload, 0, 0.0, trace=False)
    assert report["attempted"] == report["failed"] == 1
    assert report["failures"] == ["exit code 1"]
    assert set(report["metrics"]) == {"run_s", "setup_s", "peak_rss_mb"}
    assert report["result_drift"] == 0


def test_traced_run_checks_golden_bytes_and_layers(tiny_workload, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    res = run.run_workload(tiny_workload, 0, run.OUT / "g", timeout=120)
    # golden bytes that differ from what the program writes, recorded consistently
    lines = res.csv.decode().splitlines()
    fields = lines[1].split(",")
    fields[6] = str(float(fields[6]) + 0.5)
    lines[1] = ",".join(fields)
    bad = ("\n".join(lines) + "\n").encode()
    tiny_workload.golden_csv.write_bytes(bad)
    tiny_workload.golden_sha256 = hashlib.sha256(bad).hexdigest()
    report = run.measure(tiny_workload, 0, 0.0, trace=True,
                         per_layer=[{"name": "trace.coverage", "unit": "ratio"}])
    assert report["result_drift"] > 0
    assert any("golden bytes" in f for f in report["failures"])

    # with true golden bytes the traced run passes and reports coverage
    tiny_workload.golden_csv.write_bytes(res.csv)
    tiny_workload.golden_sha256 = hashlib.sha256(res.csv).hexdigest()
    tiny_workload.expected_layers.append("richrep.distill")
    report = run.measure(tiny_workload, 0, 0.0, trace=True,
                         per_layer=[{"name": "trace.coverage", "unit": "ratio"}])
    assert report["failures"] == ["traced: traced run recorded no calls for richrep.distill"]
    tiny_workload.expected_layers.pop()
    report = run.measure(tiny_workload, 0, 0.0, trace=True,
                         per_layer=[{"name": "trace.coverage", "unit": "ratio"}])
    assert report["failed"] == 0, report["failures"]
    assert 0 < report["metrics"]["trace.coverage"]["value"] <= 1
