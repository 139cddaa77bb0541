"""Trace layers: every benchmark workload, run at its pinned seed under the
benchmark's span tracer, records each layer that ``perfbench/workloads.json``
expects of it.  A refactor that renames a traced function, stops calling it
or changes how its calls are filed (a lone probe fitted as a stack of one is
traced as ``support``, not ``full``) fails here, not only in a traced
benchmark run.

Reads only ``perfbench/`` (tracer, configs, expected layers) and
``BENCHMARK.json`` (the workload list).
"""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from richlab import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WORKLOADS = json.loads((PERFBENCH / "workloads.json").read_text())
BENCHMARKED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("name", BENCHMARKED)
def test_workload_trace_records_every_expected_layer(name, tmp_path, capsys):
    workload = WORKLOADS["workloads"][name]
    spans = tracer.Tracer()
    spans.install()
    try:
        rc = cli.cmd_run(str(PERFBENCH / workload["config"]), seed=WORKLOADS["pinned_seed"],
                         out=str(tmp_path))
    finally:
        spans.uninstall()
    capsys.readouterr()
    assert rc == 0
    missing = [layer for layer in workload["expected_layers"]
               if layer not in tracer.layer_stats(spans.spans)]
    assert missing == []
