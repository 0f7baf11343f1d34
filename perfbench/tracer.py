"""Outside-in tracer: times the program's modules by wrapping their public
functions, without any change to the program.

Each public function of a layer module is replaced by a timing wrapper in
every ``ovalbounds`` namespace that binds it (``ovalbounds.verify`` and
``ovalbounds.cli`` both bind ``true_spectrum``, for example), so calls made
inside the package are timed as well as calls made from outside.  Spans
(name, start, end, parent, operation id, count) are kept in memory and
written out when the run ends; per-layer metrics are derived from them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

#: Package modules traced as layers, in reporting order.
LAYERS = ("matdense", "modal", "regions", "verify", "overdamped", "cli")

#: Public methods traced besides module-level functions.  Per-primitive
#: methods such as ``margin`` are left alone: ``check_inclusion`` calls them
#: millions of times at n = 200 and a wrapper there would swamp the run.
METHODS = (("regions", "RegionUnion", "membership_many"),)


def _path_size(args, kwargs):
    path = kwargs.get("path", args[2] if len(args) > 2 else None)
    return os.path.getsize(path)


#: Work counts recorded on a span: span name -> (metric suffix, counter).
COUNTERS = {
    "regions.build_regions": ("primitives", lambda a, k, r: len(r.primitives)),
    "regions.boundary_polyline": ("vertices", lambda a, k, r: sum(len(loop) for loop in r)),
    "regions.membership_many": ("evals", lambda a, k, r: a[1].size * len(a[0].primitives)),
    "verify.check_inclusion": ("margin_evals", lambda a, k, r: len(a[0]) * len(a[1].primitives)),
    "cli.emit_svg": ("bytes", lambda a, k, r: _path_size(a, k)),
}

ROOT = "op"


class Tracer:
    """Installs and removes the wrappers and owns the recorded spans."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, count]
        self.stack = []
        self.op = -1
        self.ops = 0
        self._patches = []
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"ovalbounds.{layer}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    targets[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "ovalbounds"]:
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in targets:
                    self._patches.append((mod, attr, obj, targets[obj]))
        for layer, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"ovalbounds.{layer}"), cls_name)
            fn = vars(cls)[attr]
            self._patches.append((cls, attr, fn, self._wrap(f"{layer}.{attr}", fn)))

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counter = COUNTERS.get(name, (None, None))[1]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def run_op(self, fn, *args):
        """Run one operation under a root span with wrappers installed."""
        self.op = self.ops
        self.ops += 1
        span = [ROOT, 0.0, 0.0, -1, self.op, 0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        self.install()
        span[1] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            span[2] = time.perf_counter()
            self.uninstall()
            self.stack.pop()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\tcount\n")
            for s in self.spans:
                fh.write("\t".join(map(str, s)) + "\n")

    def metrics(self, scales):
        """Per-operation self time, calls and counts by function and layer.

        A span's self time is its duration minus the durations of its
        direct children, multiplied by ``scales[op]`` (reference seconds
        per wall second of that operation; operations without a scale,
        such as failed ones, are left out).
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for i, (name, start, end, _, op, count) in enumerate(self.spans):
            if name == ROOT or scales.get(op) is None:
                continue
            self_s = (end - start - child[i]) * scales[op]
            layer = name.split(".")[0]
            for key, value in (
                (f"{layer}.self_s", self_s),
                (f"{name}.self_s", self_s),
                (f"{name}.calls", 1),
            ):
                totals[key] = totals.get(key, 0) + value
            if name in COUNTERS:
                key = f"{name}.{COUNTERS[name][0]}"
                totals[key] = totals.get(key, 0) + count
        ops = max(sum(s is not None for s in scales.values()), 1)
        return {key: value / ops for key, value in totals.items()}
