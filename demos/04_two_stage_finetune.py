"""Naive versus two-stage fine-tuning of a concatenated trunk.

Fine-tuning all five concatenated legs jointly on a small shifted sample
damages the rich representation; fine-tuning each leg separately and
then training only the concatenated classifier preserves it.
"""
from richlab.core_nn import Schedule, TrainConfig
from richlab.experiments import default_shift_spec, make_ft_target, make_shift_task
from richlab.richrep import (
    bank_head_accuracy,
    naive_finetune,
    train_episodes,
    two_stage_finetune,
)
from richlab.rng import derive_seed

spec = default_shift_spec()
pretrain = make_shift_task(spec, seed=42)
target = make_ft_target(spec, seed=43, n_rows=120)

train_cfg = TrainConfig(lr=0.1, epochs=60, batch_size=32, momentum=0.9,
                        schedule=Schedule("cosine"))
ft_cfg = TrainConfig(lr=0.02, epochs=30, batch_size=16, momentum=0.9, seed=7)

bank = train_episodes(pretrain.train, (8,), train_cfg,
                      [derive_seed(5, i) for i in range(5)])

ood = target.ood_test
naive_bank, naive_head = naive_finetune(bank, target.train, ft_cfg)
print(f"naive fine-tune of the concatenated trunk: "
      f"{bank_head_accuracy(naive_bank, naive_head, ood.X, ood.y):.3f} on shifted test")

ft_bank, head = two_stage_finetune(bank, target.train, ft_cfg)
print(f"two-stage fine-tune (legs separately, then the classifier): "
      f"{bank_head_accuracy(ft_bank, head, ood.X, ood.y):.3f}")
print("\none joint episode on scarce target data impoverishes the")
print("representation; per-leg fine-tuning with a concatenated classifier")
print("initialized from the leg classifiers does not.")
