"""Snapshots of one high-step-size run, evaluated few-shot.

Five parameter snapshots from a single fast training episode are nearly
as diverse as five independent episodes: their concatenation beats the
best individual snapshot on episodes of never-seen classes.
"""
import numpy as np

from richlab.core_nn import Schedule, TrainConfig
from richlab.experiments import (
    FewshotConfig,
    default_split_spec,
    episode_accuracies,
    make_class_split_tasks,
    make_shift_task,
    snapshot_schedule,
)
from richlab.richrep import cat_features, snapshot_episode
from richlab.rng import SplitMix64, derive_seed
from richlab.tasks import EpisodeSpec, sample_episode

spec = default_split_spec()
base, novel = make_class_split_tasks(make_shift_task(spec, 42))

snap_cfg = TrainConfig(lr=0.8, epochs=60, batch_size=32, momentum=0.0,
                       schedule=Schedule("cosine"), seed=9)
snaps = snapshot_schedule(snap_cfg.epochs, 5)
bank = snapshot_episode(base.train, (8,), snap_cfg, snaps)

episode_spec = EpisodeSpec(n_way=5, k_shot=5, n_query=15)
rng = SplitMix64(derive_seed(9, 900))
# each episode is the positions of its rows in the novel split
episodes = np.stack([sample_episode(novel.train, episode_spec, rng) for _ in range(150)])
cfg = FewshotConfig()

print(f"snapshots taken after epochs {snaps} of one lr={snap_cfg.lr} run")
# the snapshots share one width, so their support problems share stacked solves
members = [bank.member(j) for j in range(len(bank))]
per_snap = episode_accuracies([lambda rows, b=m: cat_features(b, novel.train.X[rows])
                               for m in members], episodes, episode_spec, cfg).mean(axis=1)
for j, acc in enumerate(per_snap):
    print(f"  snapshot {j + 1}: few-shot accuracy {acc:.3f}")

(accs,) = episode_accuracies([lambda rows: cat_features(bank, novel.train.X[rows])], episodes,
                             episode_spec, cfg)
print(f"\nconcatenation of the 5 snapshots: {accs.mean():.3f} "
      f"(best single was {max(per_snap):.3f})")
print("\nfeatures are discovered and then abandoned along the trajectory;")
print("keeping the snapshots keeps the features.")
