"""Concatenating independently trained episodes.

Five networks differ only by their training seed.  Each one alone probes
about the same; concatenated, the in-distribution probe barely moves
while the shifted-distribution probe jumps.
"""
import numpy as np

from richlab.core_nn import Schedule, TrainConfig
from richlab.experiments import default_shift_spec, make_shift_task
from richlab.probing import ProbeConfig, fit_probe
from richlab.richrep import cat_features, train_episodes
from richlab.rng import derive_seed

task = make_shift_task(default_shift_spec(), seed=42)
train_cfg = TrainConfig(lr=0.1, epochs=60, batch_size=32, momentum=0.9,
                        schedule=Schedule("cosine"))
probe_cfg = ProbeConfig(l2=1e-3, max_iters=600, grad_tol=1e-7, standardize=True)

bank = train_episodes(task.train, (8,), train_cfg, [derive_seed(7, i) for i in range(5)])


def probe_pair(feature_fn):
    ident = fit_probe(feature_fn(task.train.X), task.train.y, probe_cfg, n_classes=5)
    id_acc = (ident.predict(feature_fn(task.id_test.X)) == task.id_test.y).mean()
    shifted = fit_probe(feature_fn(task.ood_train.X), task.ood_train.y, probe_cfg,
                        n_classes=5)
    ood_acc = (shifted.predict(feature_fn(task.ood_test.X)) == task.ood_test.y).mean()
    return id_acc, ood_acc


print("per-episode probes (each seed alone):")
for i in range(5):
    member = bank.member(i)
    id_acc, ood_acc = probe_pair(lambda X, b=member: cat_features(b, X))
    print(f"  episode {i}: id {id_acc:.3f}   shifted {ood_acc:.3f}")

id_acc, ood_acc = probe_pair(lambda X: cat_features(bank, X))
print(f"\nconcatenation of all 5: id {id_acc:.3f}   shifted {ood_acc:.3f}")
print("\nthe episodes perform alike, yet their concatenation is far better")
print("under shift: the representations differ where it matters.")
