"""Golden bytes: the pinned benchmark workloads reproduce their recorded
``results.csv`` at seed 0, so a kernel change that moves one bit fails here.

Reads only ``perfbench/`` (configs, and hashes in ``workloads.json``).
"""
import hashlib
import json
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from richlab import cli
from richlab.rng import SplitMix64

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = json.loads((PERFBENCH / "workloads.json").read_text())


# the one function that opens two streams from one seed: the student trunk
# and the teacher heads of a distillation both start from its config seed
SHARED_SEED_SITE = "richlab.richrep.distill"


@pytest.mark.parametrize("name", ["transfer", "fewshot", "ood-vrex"])
def test_workload_csv_matches_golden_hash(name, tmp_path, capsys, monkeypatch):
    # every stream the run opens, by seed: the functions that opened it
    opened, init = defaultdict(list), SplitMix64.__init__

    def recording(rng, seed):
        init(rng, seed)
        caller = sys._getframe(1)
        opened[rng.seed].append(f"{caller.f_globals['__name__']}.{caller.f_code.co_name}")

    monkeypatch.setattr(SplitMix64, "__init__", recording)
    workload = WORKLOADS["workloads"][name]
    rc = cli.cmd_run(str(PERFBENCH / workload["config"]), seed=WORKLOADS["pinned_seed"],
                     out=str(tmp_path))
    capsys.readouterr()
    assert rc == 0
    digest = hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest()
    assert digest == workload["golden_sha256"]
    # one stream per seed: a key two draws share would correlate them
    assert opened
    shared = [sites for sites in opened.values() if len(sites) > 1]
    assert all(sites == [SHARED_SEED_SITE] * 2 for sites in shared), shared


def test_transfer_fits_each_distinct_probe_problem_once(tmp_path, capsys, monkeypatch):
    # the pinned transfer run poses 28 probe problems, 7 of them repeats:
    # catsub's id stack repeats cat's leg-gap stack, and erm's train probe
    # and ood refit are leg 0 of those stacks
    import numpy as np

    from richlab import experiments, probing

    fit_probe, problems = probing.fit_probe, []

    def counted(features, *args, **kwargs):
        problems.append(np.shape(features)[0] if np.ndim(features) == 3 else 1)
        return fit_probe(features, *args, **kwargs)

    for module in (experiments, probing):
        monkeypatch.setattr(module, "fit_probe", counted)
    workload = WORKLOADS["workloads"]["transfer"]
    assert cli.cmd_run(str(PERFBENCH / workload["config"]), seed=WORKLOADS["pinned_seed"],
                       out=str(tmp_path)) == 0
    capsys.readouterr()
    assert sum(problems) == 21
