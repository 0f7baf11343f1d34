"""The benchmark harness under perfbench/ against the library: the names it
looks up exist, and its self-test passes."""

import importlib.util
import os
import subprocess
import sys

import numpy as np

from ovalbounds.regions import Disk, Method, RegionUnion

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


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
