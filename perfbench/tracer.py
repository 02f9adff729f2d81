"""In-memory span tracer around msmda's public functions.

The tracer wraps a function at every name its callers look it up by: a
function that another msmda module imported by name is replaced in that
module too (``msmda.model.mmd_squared`` as well as
``msmda.losses.mmd_squared``), and a method is replaced on its class.
Each call records one span (name, start, end, parent span, count). The
originals are put back when the tracer is uninstalled. Nothing inside
``src/`` is changed on disk.
"""

from __future__ import annotations

import functools
import os
import sys
import time

LAYERS = ("neuralcore", "losses", "model", "data", "harness", "cli")

# span name -> (module, attribute); "Class.method" attributes patch the class
TARGETS = {
    "neuralcore.linear_forward": ("msmda.neuralcore", "LinearLayer.forward"),
    "neuralcore.linear_backward": ("msmda.neuralcore", "LinearLayer.backward"),
    "neuralcore.leaky_relu": ("msmda.neuralcore", "leaky_relu"),
    "neuralcore.leaky_relu_backward": ("msmda.neuralcore", "leaky_relu_backward"),
    "neuralcore.softmax": ("msmda.neuralcore", "softmax"),
    "neuralcore.adam_step": ("msmda.neuralcore", "adam_step"),
    "losses.mmd_squared": ("msmda.losses", "mmd_squared"),
    "losses.classification_loss": ("msmda.losses", "classification_loss"),
    "losses.discrepancy_loss": ("msmda.losses", "discrepancy_loss"),
    "model.init_model": ("msmda.model", "init_model"),
    "model.train_step": ("msmda.model", "train_step"),
    "model.predict": ("msmda.model", "predict"),
    "model.save_checkpoint": ("msmda.model", "save_checkpoint"),
    "data.load_domain_csv": ("msmda.data", "load_domain_csv"),
    "data.generate_synthetic": ("msmda.data", "generate_synthetic"),
    "data.normalize": ("msmda.data", "normalize"),
    "data.next_batch": ("msmda.data", "BatchSampler.next_batch"),
    "harness.run_experiment": ("msmda.harness", "run_experiment"),
    "harness.run_ablation": ("msmda.harness", "run_ablation"),
    "harness.run_baseline_source_combine": ("msmda.harness", "run_baseline_source_combine"),
    "harness.build_tasks": ("msmda.harness", "build_tasks"),
    "harness.prepare_task": ("msmda.harness", "prepare_task"),
    "harness.train_fold": ("msmda.harness", "train_fold"),
    "harness.write_outputs": ("msmda.harness", "write_outputs"),
    "cli.main": ("msmda.cli", "main"),
}

# set-up calls and the step boundary: cheap enough to time in the untraced run
SETUP = ("harness.build_tasks", "harness.prepare_task", "model.init_model")
UNTRACED = SETUP + ("model.train_step",)


def _train_rows(args, kwargs):
    source_batches, target_batch = args[1], args[2]
    return sum(len(feats) for feats, _ in source_batches) + len(target_batch)


def _predict_rows(args, kwargs):
    return len(args[1])


# per-call counts recorded at the boundary (rows passed through the call)
COUNTS = {"model.train_step": _train_rows, "model.predict": _predict_rows}
# per-call keys whose distinct values are kept (files parsed)
DISTINCT = {"data.load_domain_csv": lambda args, kwargs: os.path.abspath(args[0])}


class Tracer:
    """Records spans of the named functions while installed."""

    def __init__(self, names=tuple(TARGETS)):
        self.names = tuple(names)
        self.span_name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.count: list[int] = []
        self.distinct = {name: set() for name in DISTINCT}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        count = COUNTS.get(name)
        key = DISTINCT.get(name)
        seen = self.distinct.get(name)
        span_name, start, end, parent, counts = (
            self.span_name, self.start, self.end, self.parent, self.count)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(name)
            parent.append(stack[-1] if stack else -1)
            counts.append(count(args, kwargs) if count else 0)
            if key:
                seen.add(key(args, kwargs))
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "msmda" or key.startswith("msmda."))]
        for name in self.names:
            module_name, attr = TARGETS[name]
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def mark(self) -> int:
        """Index of the next span, for slicing one phase out of the record."""
        return len(self.span_name)

    def durations(self, name: str, since: int = 0) -> list[float]:
        """Durations of the spans of ``name`` from span index ``since`` on."""
        return [self.end[i] - self.start[i] for i in range(since, len(self.span_name))
                if self.span_name[i] == name]

    def counts(self, name: str) -> list[int]:
        return [c for n, c in zip(self.span_name, self.count) if n == name]

    def aggregate(self) -> dict[str, dict[str, float]]:
        """calls, busy_s, self_s and count per function and per layer.

        A span's self time is its duration minus its direct children's. A
        layer's calls and busy time count only the spans entered from
        outside the layer; its self time sums the self time of all its
        spans, so it excludes time spent in other layers.
        """
        n = len(self.span_name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        stats: dict[str, dict[str, float]] = {}
        for key in list(self.names) + list(LAYERS):
            stats[key] = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "count": 0}
        for i, name in enumerate(self.span_name):
            s = stats[name]
            s["calls"] += 1
            s["busy_s"] += dur[i]
            s["self_s"] += dur[i] - child[i]
            s["count"] += self.count[i]
            layer = name.split(".")[0]
            ls = stats[layer]
            ls["self_s"] += dur[i] - child[i]
            p = self.parent[i]
            if p < 0 or self.span_name[p].split(".")[0] != layer:
                ls["calls"] += 1
                ls["busy_s"] += dur[i]
        return stats

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            for i, name in enumerate(self.span_name):
                fh.write(f"{name},{self.start[i]!r},{self.end[i]!r},{self.parent[i]}\n")
