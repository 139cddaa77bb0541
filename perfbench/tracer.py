"""Outside-in span tracer for richlab, and the span arithmetic behind the
per-layer metrics.

The tracer changes no richlab source.  Modules import functions by name
(``from .probing import fit_probe``), so wrapping ``probing.fit_probe``
alone would miss ``experiments.fit_probe``, ``richrep.fit_probe`` and
``verify.fit_probe``.  :meth:`Tracer.install` therefore replaces every
binding of each traced function among the module globals of every loaded
``richlab`` module, patches methods such as ``SplitMix64.permutation``
as class attributes, and replaces the entries of registry tuples such as
``verify.ALL_SUITES``, which hold their own references.

Spans stay in memory as ``[name, start, end, parent, attrs]`` records and
are written out once, at the end of the run.
"""
from __future__ import annotations

import json
import sys
import time
import types
from dataclasses import dataclass, field
from typing import Callable

# fit_probe calls on at most this many rows are few-shot support sets
SUPPORT_MAX_ROWS = 100


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    return int(shape[0]) if shape else 0


def _arg(args, kwargs, i: int, name: str):
    return args[i] if len(args) > i else kwargs.get(name)


def _loss_grad_attrs(args, kwargs, result):
    net, X = _arg(args, kwargs, 0, "net"), _arg(args, kwargs, 1, "X")
    n = _rows(X)
    # forward (2 n i o) plus backward dW and d_input (4 n i o) per dense layer
    macs = sum(layer.weights.size for layer in net.layers)
    return {"rows": n, "gflop_computed": 6.0 * n * macs / 1e9}


def _fit_probe_attrs(args, kwargs, result):
    n = _rows(_arg(args, kwargs, 0, "features"))
    return {"rows": n, "converged": bool(result.converged),
            "kind": "support" if n <= SUPPORT_MAX_ROWS else "full"}


def _train_attrs(args, kwargs, result):
    return {"epochs": int(_arg(args, kwargs, 3, "config").epochs)}


def _rows_attr(index: int, name: str):
    def attrs(args, kwargs, result):
        return {"rows": _rows(_arg(args, kwargs, index, name))}
    return attrs


def _permutation_attrs(args, kwargs, result):
    return {"items": int(_arg(args, kwargs, 1, "n"))}


def _episodes_attrs(args, kwargs, result):
    return {"episodes": len(_arg(args, kwargs, 1, "episodes"))}


@dataclass(frozen=True)
class Target:
    """One traced function: where it is defined and the span name it records."""

    module: str
    attr: str
    span: str
    attrs: Callable | None = None


TARGETS = (
    Target("richlab.cli", "cmd_run", "cli.cmd_run"),
    Target("richlab.cli", "make_ood_bundle", "cli.make_ood_bundle"),
    Target("richlab.tasks", "gen_shift", "tasks.gen_shift"),
    Target("richlab.tasks", "sample_episode", "tasks.sample_episode"),
    Target("richlab.tasks", "split_classes", "tasks.split_classes"),
    Target("richlab.rng", "SplitMix64.permutation", "rng.permutation",
           _permutation_attrs),
    Target("richlab.core_nn.train", "network_loss_grad", "core_nn.network_loss_grad",
           _loss_grad_attrs),
    Target("richlab.core_nn.optim", "sgd_step", "core_nn.sgd_step"),
    Target("richlab.core_nn.layers", "stack_forward", "core_nn.stack_forward"),
    Target("richlab.core_nn.layers", "stack_backward", "core_nn.stack_backward"),
    Target("richlab.core_nn.train", "train", "core_nn.train", _train_attrs),
    Target("richlab.core_nn.layers", "extract_features", "core_nn.extract_features",
           _rows_attr(1, "X")),
    Target("richlab.probing", "fit_probe", "probing.fit_probe", _fit_probe_attrs),
    Target("richlab.richrep", "train_episodes", "richrep.train_episodes"),
    Target("richlab.richrep", "distill", "richrep.distill"),
    Target("richlab.richrep", "joint_train", "richrep.joint_train"),
    Target("richlab.richrep", "snapshot_episode", "richrep.snapshot_episode"),
    Target("richlab.richrep", "leg_probe_gap", "richrep.leg_probe_gap"),
    Target("richlab.richrep", "subset_ensemble_predict", "richrep.subset_ensemble_predict"),
    Target("richlab.richrep", "cat_features", "richrep.cat_features", _rows_attr(1, "X")),
    Target("richlab.experiments", "make_shift_task", "experiments.make_shift_task"),
    Target("richlab.experiments", "make_class_split_tasks",
           "experiments.make_class_split_tasks"),
    Target("richlab.experiments", "run_transfer", "experiments.run_transfer"),
    Target("richlab.experiments", "run_fewshot", "experiments.run_fewshot"),
    Target("richlab.experiments", "episode_accuracies", "experiments.episode_accuracies",
           _episodes_attrs),
    Target("richlab.experiments", "run_ood", "experiments.run_ood"),
    Target("richlab.experiments", "write_records_csv", "experiments.write_records_csv"),
)

# tuples of functions that callers iterate: (module, attribute, span prefix);
# each entry records spans named ``<prefix>.<function name>``
REGISTRIES = (
    ("richlab.verify", "ALL_SUITES", "verify"),
)


class Tracer:
    """Wraps traced functions at every binding site and records spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    def wrap(self, fn: Callable, span: str, attrs: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            record = [span, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if attrs is not None:
                record[4] = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        return traced

    def install(self) -> None:
        """Wrap every binding of every target."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "richlab" or name.startswith("richlab."))
                   and isinstance(m, types.ModuleType)]
        originals: dict[int, Callable] = {}
        for target in TARGETS:
            owner = sys.modules[target.module]
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                self._set(cls, meth, self.wrap(fn, target.span, target.attrs))
                continue
            fn = getattr(owner, target.attr)
            originals[id(fn)] = self.wrap(fn, target.span, target.attrs)
        for module_name, attr, prefix in REGISTRIES:
            for fn in getattr(sys.modules[module_name], attr):
                originals[id(fn)] = self.wrap(fn, f"{prefix}.{fn.__name__}")
        for module in modules:
            for name, value in list(vars(module).items()):
                if id(value) in originals and callable(value):
                    self._set(module, name, originals[id(value)])
        for module_name, attr, _ in REGISTRIES:
            owner = sys.modules[module_name]
            self._set(owner, attr, tuple(originals[id(fn)] for fn in getattr(owner, attr)))

    def _set(self, owner, name: str, value) -> None:
        old = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        setattr(owner, name, value)
        self._undo.append(lambda: setattr(owner, name, old))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# span arithmetic

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def children_of(spans) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        kids.setdefault(span[3], []).append(i)
    return kids


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    kids = children_of(spans)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        child = [(spans[c][1], spans[c][2]) for c in kids.get(i, ())]
        out.append((end - start) - _covered(child, start, end))
    return out


def span_key(span) -> str:
    """Metric prefix of a span; probe fits split into support and full solves."""
    name, attrs = span[0], span[4]
    if name == "probing.fit_probe" and attrs:
        return f"{name}.{attrs['kind']}"
    return name


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    sums: dict = field(default_factory=dict)


def layer_stats(spans) -> dict[str, LayerStats]:
    """Calls, total and self seconds, and summed attributes per span key."""
    selfs = self_times(spans)
    stats: dict[str, LayerStats] = {}
    for span, self_s in zip(spans, selfs):
        st = stats.setdefault(span_key(span), LayerStats())
        st.calls += 1
        st.total_s += span[2] - span[1]
        st.self_s += self_s
        for k, v in (span[4] or {}).items():
            if isinstance(v, (bool, int, float)):
                st.sums[k] = st.sums.get(k, 0) + v
    return stats


def coverage(spans) -> float:
    """Share of the root span covered by its direct children."""
    roots = [i for i, s in enumerate(spans) if s[3] == -1]
    if len(roots) != 1:
        raise ValueError(f"expected one root span, found {len(roots)}")
    root = spans[roots[0]]
    kids = children_of(spans).get(roots[0], [])
    covered = _covered([(spans[c][1], spans[c][2]) for c in kids], root[1], root[2])
    return covered / (root[2] - root[1])
