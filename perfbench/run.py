"""richlab benchmark: pinned pipeline workloads run through ``richlab run``.

Each workload run is a fresh process that executes ``cli.cmd_run`` on a
pinned config (``perfbench/workloads/<name>.json``) with the workload seed
passed as ``--seed``.  Runs are sequential: one client, closed loop.

    python3 perfbench/run.py --workload transfer --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --all --seed 0              # every workload
    python3 perfbench/run.py --all --seed 0 --trace 1    # plus per-layer trace

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` measures the
same untraced runs, then one traced run, and reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything
the benchmark writes goes under ``.perfbench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 31         # fresh set-up processes per run, median reported
RUN_DEADLINE_S = 170.0     # a whole benchmark run stays below this
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def workload_spec() -> dict:
    """Pinned seed and per-workload config, golden file and expected layers."""
    return json.loads((HERE / "workloads.json").read_text())


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# environment record

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _blas() -> str:
    try:
        import numpy as np

        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{cfg.get('name')} {cfg.get('version')}"
    except Exception as exc:  # numpy layouts differ between versions
        return f"unknown ({type(exc).__name__})"


def environment(seed: int) -> dict:
    try:
        import numpy as np

        numpy_version = np.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": _blas(),
        "num_threads": {k: v for k, v in sorted(child_env().items())
                        if k.endswith("_NUM_THREADS")},
        "seed": seed,
        "commit": _git_commit(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE), *filter(None, [env.get("PYTHONPATH")])])
    # one BLAS thread: the closed loop has a single client on a shared box,
    # and a fixed thread count keeps float summation order fixed
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


# ---------------------------------------------------------------------------
# results.csv checks

def parse_rows(text: str) -> dict[tuple, float]:
    """Rows keyed by structure: the seed column becomes its rank of first
    appearance, and ``config_id`` is the only ``extra`` field kept."""
    lines = text.splitlines()
    if not lines or lines[0] != "run_id,seed,method,task,split,metric,value,extra":
        raise ValueError("results.csv header mismatch")
    ranks: dict[str, int] = {}
    rows: dict[tuple, float] = {}
    for line in lines[1:]:
        run_id, seed, method, task, split, metric, value, extra = line.split(",")
        fields = dict(p.split("=", 1) for p in extra.split("|") if p)
        key = (run_id, ranks.setdefault(seed, len(ranks)), method, task, split,
               metric, fields.get("config_id", ""))
        if key in rows:
            raise ValueError(f"duplicate row {key}")
        v = float(value)
        if not math.isfinite(v):
            raise ValueError(f"non-finite value in row {key}")
        rows[key] = v
    return rows


def result_drift(rows: dict, golden: dict) -> float:
    """Largest absolute value difference over matching rows."""
    return max((abs(rows[k] - golden[k]) for k in rows.keys() & golden.keys()),
               default=0.0)


@dataclass
class Workload:
    name: str
    config: Path
    golden_csv: Path
    golden_sha256: str
    expected_layers: list[str]
    pinned_seed: int
    known_failure: str | None = None

    @staticmethod
    def load(name: str) -> "Workload":
        spec = workload_spec()
        w = spec["workloads"][name]
        return Workload(name, HERE / w["config"], HERE / w["golden_csv"],
                        w["golden_sha256"], w["expected_layers"], spec["pinned_seed"],
                        w.get("known_failure"))

    def golden(self) -> tuple[bytes, dict, str | None]:
        """Golden bytes, their rows, and why they cannot be trusted (or None)."""
        data = self.golden_csv.read_bytes()
        if hashlib.sha256(data).hexdigest() != self.golden_sha256:
            return data, {}, f"{self.golden_csv.name} does not match its recorded sha256"
        return data, parse_rows(data.decode()), None


# ---------------------------------------------------------------------------
# fresh-process runs

@dataclass
class RunResult:
    failure: str | None = None
    run_s: float = math.nan
    setup_s: float = math.nan
    rss_mb: float = math.nan
    csv: bytes = b""
    spans: list = field(default_factory=list)


def spawn(mode: str, run_dir: Path, timeout: float,
          args=()) -> tuple[int | None, dict, float]:
    """Run child.py in a fresh interpreter; returns (exit code, result, setup_s).

    The exit code is None when the child ran out of ``timeout`` seconds and
    was killed.
    """
    run_dir.mkdir(parents=True, exist_ok=True)
    result_path = run_dir / "child.json"
    cmd = [sys.executable, str(HERE / "child.py"), mode, "--result", str(result_path),
           *args]
    with open(run_dir / "log.txt", "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        try:
            rc = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            return None, {}, math.nan
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    try:
        result = json.loads(result_path.read_text())
    except (OSError, ValueError):
        return rc, {}, math.nan
    return rc, result, result["t_ready"] - t_spawn


def run_workload(w: Workload, seed: int, run_dir: Path, timeout: float,
                 trace: bool = False) -> RunResult:
    """One fresh-process run.  A run that exits non-zero but writes its
    outputs (``verify`` returns 1 when a suite fails) is failed, yet keeps
    its timings, CSV and spans: the pipeline did all its work."""
    out = run_dir / "out"
    args = ["--config", str(w.config), "--seed", str(seed), "--out", str(out)]
    if trace:
        args += ["--trace-out", str(run_dir / "spans.json")]
    rc, result, setup_s = spawn("run", run_dir, timeout, args)
    res = RunResult(setup_s=setup_s, run_s=result.get("run_s", math.nan),
                    rss_mb=result.get("maxrss_kb", math.nan) / 1024.0)
    if rc is None:
        res.failure = "timed out"
        return res
    missing = [name for name in ("results.csv", "manifest.json")
               if not (out / name).is_file()]
    if rc != 0:
        res.failure = f"exit code {rc}"
    elif missing:
        res.failure = f"{missing[0]} missing"
    if missing or "run_s" not in result:
        return res
    res.csv = (out / "results.csv").read_bytes()
    if trace:
        res.spans = json.loads((run_dir / "spans.json").read_text())
    return res


def csv_problem(csv: bytes, golden_rows: dict, reference: bytes | None) -> str | None:
    """Why a run's results.csv is wrong, or None when its rows match the
    golden row keys and its bytes match ``reference``."""
    try:
        rows = parse_rows(csv.decode())
    except (UnicodeDecodeError, ValueError) as exc:
        return f"unreadable results.csv: {exc}"
    if rows.keys() != golden_rows.keys():
        return (f"row keys differ from golden: {len(rows.keys() - golden_rows.keys())}"
                f" extra, {len(golden_rows.keys() - rows.keys())} missing")
    if reference is not None and csv != reference:
        return "results.csv bytes differ from another run of the same code"
    return None


# ---------------------------------------------------------------------------
# metrics

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def per_layer_metrics(specs, spans, traced_run_s: float, untraced_run_s: float) -> dict:
    """Values of the per-layer metrics ``specs`` (``name`` and ``unit``
    entries of ``BENCHMARK.json``) from a traced run's spans.

    ``<key>.calls``, ``<key>.self_s`` and ``<key>.s`` (total) come from the
    spans of key ``<key>``; other stats sum the span attribute of that name.
    """
    stats = tracer.layer_stats(spans)
    probes = [stats.get(f"probing.fit_probe.{k}", tracer.LayerStats())
              for k in ("support", "full")]
    attempted = sum(p.calls for p in probes)
    special = {
        "trace.overhead_s": traced_run_s - untraced_run_s,
        "trace.coverage": tracer.coverage(spans),
        "probing.fit_probe.converged_frac":
            sum(p.sums.get("converged", 0) for p in probes) / attempted if attempted else 0.0,
    }
    metrics = {}
    for spec in specs:
        name = spec["name"]
        key, stat = name.rsplit(".", 1)
        if name in special:
            value = special[name]
        else:
            st = stats.get(key, tracer.LayerStats())
            value = {"calls": st.calls, "self_s": st.self_s, "s": st.total_s}.get(
                stat, st.sums.get(stat, 0))
        metrics[name] = {"value": value, "unit": spec["unit"]}
    return metrics


# ---------------------------------------------------------------------------
# one benchmark run

def measure(w: Workload, seed: int, seconds: float, trace: bool,
            per_layer=()) -> dict:
    """One benchmark run of workload ``w``: untraced runs for ``seconds``,
    set-up probes, and with ``trace`` one traced run."""
    t_begin = time.monotonic()
    deadline = t_begin + RUN_DEADLINE_S
    golden, golden_rows, golden_problem = w.golden()
    pinned = seed == w.pinned_seed
    base = OUT / f"{w.name}-seed{seed}"
    shutil.rmtree(base, ignore_errors=True)

    def check(res: RunResult, reference: bytes | None) -> str | None:
        """Checks a completed run's CSV; sets and returns its problem."""
        if not res.csv:
            return None
        problem = golden_problem or csv_problem(res.csv, golden_rows, reference)
        res.failure = res.failure or problem
        return problem

    runs: list[RunResult] = []
    reference = None   # bytes of the first completed run of this set with good rows
    t_start = time.monotonic()
    while not runs or (time.monotonic() - t_start < seconds
                       and time.monotonic() < deadline):
        res = run_workload(w, seed, base / f"run{len(runs)}", deadline - time.monotonic())
        if check(res, reference) is None and reference is None and res.csv:
            reference = res.csv
        runs.append(res)
    failures = [r.failure for r in runs if r.failure]
    setups = [r.setup_s for r in runs if math.isfinite(r.setup_s)]
    probes = setup_failed = 0
    while len(setups) < SETUP_SAMPLES:
        probes += 1
        rc, _, s = spawn("setup", base / f"setup{probes}", deadline - time.monotonic())
        if rc != 0 or not math.isfinite(s):
            failures.append(f"set-up process failed with exit code {rc}")
            setup_failed = 1
            break
        setups.append(s)

    # timings come from every run that did the whole pipeline, failed or not
    done = [r for r in runs if r.csv]
    e2e = {"setup_s": quartiles(setups)} if setups else {}
    if done:
        e2e["run_s"] = quartiles([r.run_s for r in done])
        e2e["peak_rss_mb"] = quartiles([r.rss_mb for r in done])
    if reference is not None and pinned:
        drift = result_drift(parse_rows(reference.decode()), golden_rows)
    elif reference is not None:
        drift = f"unavailable (golden values exist for seed {w.pinned_seed} only)"
    else:
        drift = "unavailable (no run wrote readable rows)"
    metrics = {m: {"value": e2e[m][1], "unit": unit}
               for m, unit in END_TO_END.items() if m in e2e}

    if trace:
        res = run_workload(w, seed, base / "traced", deadline - time.monotonic(), trace=True)
        check(res, reference)
        problems = [res.failure] if res.failure else []
        if res.csv and pinned and res.csv != golden:
            problems.append("traced results.csv differs from the golden bytes")
        if not done:
            problems.append("no untraced run to compare against")
        if res.spans:
            stats = tracer.layer_stats(res.spans)
            missing = [k for k in w.expected_layers if k not in stats]
            if missing:
                problems.append(f"traced run recorded no calls for {', '.join(missing)}")
        runs.append(res)
        if problems:
            res.failure = "; ".join(problems)
            failures.append("traced: " + res.failure)
        metrics = {}
        if res.spans and done:
            metrics = per_layer_metrics(per_layer, res.spans, res.run_s, e2e["run_s"][1])
        res.spans = []
    report = {
        "workload": w.name, "env": environment(seed), "runs": len(done),
        "setup_samples": len(setups),
        "e2e": e2e, "result_drift": drift, "metrics": metrics, "failures": failures,
        "known_failure": w.known_failure,
        # every process started counts: workload runs and set-up probes
        "attempted": len(runs) + probes,
        "failed": sum(1 for r in runs if r.failure) + setup_failed,
        "wall_s": time.monotonic() - t_begin,
    }
    (base / "report.json").write_text(json.dumps(report, indent=1, default=str))
    return report


def print_report(report: dict) -> None:
    name = report["workload"]
    print(f"[{name}] env {json.dumps(report['env'], sort_keys=True)}")
    for metric, (q1, med, q3) in report["e2e"].items():
        n = report["setup_samples"] if metric == "setup_s" else report["runs"]
        print(f"[{name}] {metric} median {med:.6g} {END_TO_END[metric]} "
              f"(q1 {q1:.6g}, q3 {q3:.6g}, n={n})")
    print(f"[{name}] result_drift {report['result_drift']}")
    print(f"[{name}] runs attempted {report['attempted']}, failed {report['failed']}")
    for failure in report["failures"]:
        print(f"[{name}] FAILED: {failure}", file=sys.stderr)
    if report["failures"] and report["known_failure"]:
        print(f"[{name}] known defect: {report['known_failure']}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="richlab pipeline benchmark")
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload")
    which.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement time per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (ROOT / "src" / "richlab" / "__init__.py").is_file():
        print(f"error: no richlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = workload_spec()
    if args.workload is not None and args.workload not in spec["workloads"]:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(spec['workloads'])}")
    seconds = args.seconds
    if seconds is None:
        seconds = benchmark_json()["run_seconds"]
    names = list(spec["workloads"]) if args.all else [args.workload]

    OUT.mkdir(exist_ok=True)
    with open(OUT / "lock", "w") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            print("error: another benchmark run holds the lock; runs are never "
                  "concurrent", file=sys.stderr)
            return 3
        per_layer = benchmark_json()["per_layer"]
        reports = [measure(Workload.load(n), args.seed, seconds, bool(args.trace),
                           per_layer) for n in names]
    for report in reports:
        print_report(report)
        if args.trace:
            for metric, m in report["metrics"].items():
                print(f"[{report['workload']}] {metric} {m['value']:.6g} {m['unit']}")
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    finite = {k: v for k, v in metrics.items() if math.isfinite(v["value"])}
    correct = failed == 0 and bool(finite) and len(finite) == len(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": finite}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
