"""Distilling a bank of teachers into one student.

A multi-head student matches the tempered soft outputs of five frozen
teachers at once.  Its single representation ends up carrying more of
the shift-relevant signal than any one teacher, though less than the
full concatenation.
"""
from richlab.core_nn import Schedule, TrainConfig, extract_features
from richlab.experiments import default_shift_spec, make_shift_task
from richlab.probing import ProbeConfig, fit_probe
from richlab.richrep import DistillSpec, cat_features, distill, train_episodes
from richlab.rng import derive_seed

task = make_shift_task(default_shift_spec(), seed=42)
train_cfg = TrainConfig(lr=0.1, epochs=60, batch_size=32, momentum=0.9,
                        schedule=Schedule("cosine"))
probe_cfg = ProbeConfig(l2=1e-3, max_iters=600, grad_tol=1e-7, standardize=True)

bank = train_episodes(task.train, (8,), train_cfg, [derive_seed(3, i) for i in range(5)])
student = distill(
    bank,
    DistillSpec(mode="kl", tau=10.0, student_arch=(16,)),
    task.train,
    TrainConfig(lr=0.01, epochs=120, batch_size=32, momentum=0.9,
                schedule=Schedule("cosine"), seed=derive_seed(3, 99)),
)


def shifted_probe_acc(feature_fn):
    probe = fit_probe(feature_fn(task.ood_train.X), task.ood_train.y, probe_cfg,
                      n_classes=5)
    return (probe.predict(feature_fn(task.ood_test.X)) == task.ood_test.y).mean()


single = bank.member(0)
print(f"shifted probe, one teacher:     {shifted_probe_acc(lambda X: cat_features(single, X)):.3f}")
print(f"shifted probe, student of five: {shifted_probe_acc(lambda X: extract_features(student, X)):.3f}")
print(f"shifted probe, concatenation:   {shifted_probe_acc(lambda X: cat_features(bank, X)):.3f}")
print("\nthe student sits between one episode and the concatenation: a single")
print("trunk can absorb much of what five heads demand of it, but not all.")
