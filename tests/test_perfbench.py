"""The benchmark harness under perfbench/ against the library: the names it
looks up exist, and its self-test passes."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys

import numpy as np

from ovalbounds.regions import Disk, Method, RegionUnion

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")

#: Per-layer metrics of BENCHMARK.json whose function the package no longer
#: has, so that they read 0 on every workload.  Only ever shrink this list.
KNOWN_UNTRACED = {
    "matdense.complex_eig",
    "regions.boundary_polyline",
    "verify.qep_residuals",
    "overdamped.pencil_max_eigenvalue",
}


def load(name):
    path = os.path.join(PERFBENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_membership_many():
    # the tracer finds RegionUnion.membership_many by name, so a rename would
    # otherwise break only traced benchmark runs
    original = RegionUnion.membership_many
    tracer = load("tracer").Tracer()
    union = RegionUnion(Method.UNDAMPED_DISK_NORM, (Disk(0j, 1.0), Disk(3.0 + 0j, 0.5)), ((0,), (1,)))
    z = np.array([0j, 2.0 + 0j, 3.0 + 0j])
    member = tracer.run_op(lambda: union.membership_many(z))
    assert member.tolist() == [True, False, True]
    assert RegionUnion.membership_many is original
    (span,) = [s for s in tracer.spans if s[0] == "regions.membership_many"]
    assert span[5] == z.size * len(union.primitives)


def test_per_layer_metrics_name_traced_functions():
    # the tracer wraps the public functions of each layer and its listed
    # methods by name, so a rename silently zeroes a metric
    tracer = load("tracer")
    methods = {f"{layer}.{attr}": (layer, cls, attr) for layer, cls, attr in tracer.METHODS}
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    traced, untraced = set(), set()
    for name in names:
        if name.count(".") != 2:  # a layer's total or the tracer's own cost
            continue
        layer, function, _ = name.split(".")
        assert layer in tracer.LAYERS, name
        module = importlib.import_module(f"ovalbounds.{layer}")
        if f"{layer}.{function}" in methods:
            _, cls, attr = methods[f"{layer}.{function}"]
            found = inspect.isfunction(vars(getattr(module, cls)).get(attr))
        else:
            obj = getattr(module, function, None)
            found = inspect.isfunction(obj) and obj.__module__ == module.__name__
            found = found and not function.startswith("_")
        (traced if found else untraced).add(f"{layer}.{function}")
    assert untraced == KNOWN_UNTRACED
    assert "regions.membership_many" in traced


def test_selftest_passes(tmp_path):
    # its work files go to the current directory
    run = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "selftest.py")],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert "12/12 cases behave as expected" in run.stdout
