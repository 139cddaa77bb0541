"""Golden demo output: each script under ``demos/`` prints the bytes recorded
here, so a change meant to be bit for bit that moves any number a demo
prints fails here.

The hashes are the sha256 of each demo's standard output.  They hold with
one BLAS thread (``OPENBLAS_NUM_THREADS=1``) and with the default of two
threads on a 2-core x86-64 box.  A change that is meant to move a demo's
numbers records the new hash here and says which numbers moved and why.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

STDOUT_SHA256 = {
    "01_probe_information.py": "8ce84bca5f2543e11bfe726396a5e5d5c49856bc889453e6409a154d8d9a80d6",
    "02_concat_episodes.py": "c1814fdec52207f6191abbff9590e8632afb71ceea68840e1e20120a51661b83",
    "03_distill_student.py": "6a5cd845e6a6f39a1a865d573bf5791cc828b39dd11758d5720467288ceea67d",
    "04_two_stage_finetune.py": "0dee04dc0c681a525830b124165b48b20d6fcb19b2a096aa8b2670743f7fa18e",
    "05_snapshots_fewshot.py": "683dedcf87384991bd7d84f68ec5ef0f1bccc4c44b74c0a713205640a203b44f",
    "06_ood_vrex.py": "671338ab883a17aeb3f125eaf4f0c8c0160a7a10cb7e3788f562c85b8a76b8d5",
}


def test_every_demo_has_a_recorded_hash():
    assert sorted(STDOUT_SHA256) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", sorted(STDOUT_SHA256))
def test_demo_stdout_matches_recorded_hash(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                         capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == STDOUT_SHA256[demo]
