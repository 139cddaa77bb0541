"""Golden bytes: the pinned benchmark workloads reproduce their recorded
``results.csv`` at seed 0, so a kernel change that moves one bit fails here.

Reads only ``perfbench/`` (configs, and hashes in ``workloads.json``).
"""
import hashlib
import json
from pathlib import Path

import pytest

from richlab import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = json.loads((PERFBENCH / "workloads.json").read_text())


@pytest.mark.parametrize("name", ["transfer", "fewshot", "ood-vrex"])
def test_workload_csv_matches_golden_hash(name, tmp_path, capsys):
    workload = WORKLOADS["workloads"][name]
    rc = cli.cmd_run(str(PERFBENCH / workload["config"]), seed=WORKLOADS["pinned_seed"],
                     out=str(tmp_path))
    capsys.readouterr()
    assert rc == 0
    digest = hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest()
    assert digest == workload["golden_sha256"]
