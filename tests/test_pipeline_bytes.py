"""Pipeline bytes: tiny configs that reach the representation and target
paths the golden benchmark CSVs do not (OOD with a concatenated or distilled
initialization, transfer fine-tuning on a shifted sample and on novel
classes, few-shot distillation and the cosine classifier) reproduce the
sha256 of the ``results.csv`` recorded for them.

A change meant to be bit for bit that moves one number on these paths fails
here.  A change meant to move them records the new hash and says which
numbers moved and why.
"""
import hashlib
import json

import pytest

from richlab import cli

SHIFT = {"kind": "shift", "n_classes": 3, "d_core": 3, "d_spur": 3, "d_noise": 2,
         "n_per_env": 60}
SPLIT = {"kind": "class_split", "n_classes": 6, "d_core": 6, "d_spur": 6, "d_noise": 2,
         "n_per_env": 60}
TRAIN = {"lr": 0.1, "epochs": 3, "batch_size": 32, "momentum": 0.9}
DISTILL_TRAIN = {"lr": 0.01, "epochs": 2, "batch_size": 32, "momentum": 0.9}
COMMON = {"master_seed": 3, "n_seeds": 1, "n_episodes": 2, "hidden": [6], "train": TRAIN,
          "distill_train": DISTILL_TRAIN}

OOD = dict(COMMON, pipeline="ood", task=SHIFT,
           ood={"algorithm": "vrex", "beta_grid": [1.0], "lr_grid": [0.1], "wd_grid": [0.0],
                "steps": 20})
TRANSFER = dict(COMMON, pipeline="transfer",
                methods=["erm", "cat", "distill", "joint", "catsub", "init-ft", "2ft"],
                probe={"l2": 1e-3, "max_iters": 60},
                ft={"lr": 0.02, "epochs": 2, "batch_size": 16, "momentum": 0.9})
FEWSHOT = dict(COMMON, pipeline="fewshot", task=SPLIT, hidden=[16],
               methods=["erm", "cat", "distill", "cat-s", "snaps"],
               fewshot={"n_way": 3, "k_shot": 2, "n_query": 3, "n_episodes_eval": 4,
                        "n_snapshots": 2})

CASES = {
    # cat's bank reads no distill_train, so a run that sets it is refused
    "ood-init-cat": dict({key: value for key, value in OOD.items() if key != "distill_train"},
                         ood=dict(OOD["ood"], init="cat")),
    "ood-init-distill": dict(OOD, ood=dict(OOD["ood"], init="distill")),
    "transfer-ood-sample": dict(TRANSFER, task=SHIFT, target="ood_sample", target_rows=30),
    "transfer-novel": dict(TRANSFER, task=SPLIT, target="novel"),
    "fewshot-linear": FEWSHOT,
    "fewshot-cosine": dict(FEWSHOT, fewshot=dict(FEWSHOT["fewshot"], classifier="cosine")),
}

RESULTS_SHA256 = {
    "fewshot-cosine": "89330bea10d08689c7b3e268be6adc2a4169e20a45bc2a7dc250c85398eff427",
    "fewshot-linear": "43d017e1da51579e09d30e7fc85a36330a839f60320de66b0857a619e291f06b",
    "ood-init-cat": "23c77138ef8105d30b4d61e713babe11f9939238f518c27d4074f9908603618e",
    "ood-init-distill": "fdea8902c840cb0b340b4534dae0ced6b8e6fe773a34aae81adedae63949f2f7",
    "transfer-novel": "a1435453aafbf81cd30a5542cda562be1bbdd74939070769f050c7a32b7e88d6",
    "transfer-ood-sample": "6631a8ec7c0c82f7a0b62be4c100f8a5bbe2df8acb28220b828372f2db99f36c",
}


def test_every_case_has_a_recorded_hash():
    assert sorted(RESULTS_SHA256) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_results_csv_matches_recorded_hash(case, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CASES[case]))
    assert cli.cmd_run(str(path), out=str(tmp_path / "out")) == 0
    capsys.readouterr()
    digest = hashlib.sha256((tmp_path / "out" / "results.csv").read_bytes()).hexdigest()
    assert digest == RESULTS_SHA256[case]
